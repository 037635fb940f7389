//! # `atlantis-backplane` — the ATLANTIS Active Backplane (AAB)
//!
//! “ACBs and AIBs share the same I/O-circuit with 160 signal lines.
//! Connections between boards are done using the private bus system of the
//! AAB. The default configuration of the I/O lines will be 4 channels of
//! 32 bit plus control, however any granularity from 16 channels of a
//! single byte to 2 channels of 64 bit might be useful. […] The total
//! bandwidth is 1 GB/s per slot. For example configuring the backplane for
//! two independent pairs of ACBs and AIBs, an integrated bandwidth of
//! 2 GB/s will result for a single ATLANTIS system.” (paper §2.3)
//!
//! The model: a backplane has `slots`, each slot exposes 128 data lines
//! (plus control) split into channels per a [`ChannelConfig`]. The host
//! configures point-to-point [`Connection`]s that reserve channels on both
//! endpoint slots; transfers on a connection stream at 66 MHz across the
//! reserved width, and independent connections run concurrently — which is
//! exactly how two ACB↔AIB pairs aggregate to 2 GB/s.
//!
//! The backplane in use at publication time was “a simple pipelined,
//! passive, i.e. not configurable” one; [`BackplaneKind`] models both it
//! and the configurable version, the difference being whether connections
//! can be re-routed after power-up and a per-hop pipeline latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlantis_simcore::{Bandwidth, Frequency, SimDuration, SimTime};
use std::fmt;

/// Per-slot transfer accounting: every transfer touching a slot (as
/// either endpoint) accumulates here. The cluster router consumes this
/// to weigh a shard's backplane pressure alongside its queue depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Bytes streamed through the slot's reserved channels.
    pub bytes_moved: u64,
    /// Virtual time the slot's channels were occupied by transfers.
    pub busy: SimDuration,
    /// Transfers that touched the slot.
    pub transfers: u64,
}

impl SlotStats {
    /// Fraction of `elapsed` the slot spent transferring (clamped to 1;
    /// a slot whose independent channels overlap can momentarily exceed
    /// the wall fraction, which still reads as "saturated").
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        let t = elapsed.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / t).min(1.0)
        }
    }
}

/// How the 128 data lines of a slot are divided into channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelConfig {
    /// 2 channels × 64 bit.
    Two64,
    /// 4 channels × 32 bit (the default configuration).
    Four32,
    /// 8 channels × 16 bit.
    Eight16,
    /// 16 channels × 8 bit.
    Sixteen8,
}

impl ChannelConfig {
    /// Number of channels.
    pub fn channels(self) -> usize {
        match self {
            ChannelConfig::Two64 => 2,
            ChannelConfig::Four32 => 4,
            ChannelConfig::Eight16 => 8,
            ChannelConfig::Sixteen8 => 16,
        }
    }

    /// Width of one channel in bits.
    pub fn channel_width_bits(self) -> u32 {
        match self {
            ChannelConfig::Two64 => 64,
            ChannelConfig::Four32 => 32,
            ChannelConfig::Eight16 => 16,
            ChannelConfig::Sixteen8 => 8,
        }
    }

    /// Total data width (always 128 bits — the granularities repartition
    /// the same lines).
    pub fn total_width_bits(self) -> u32 {
        self.channels() as u32 * self.channel_width_bits()
    }

    /// All supported granularities.
    pub fn all() -> [ChannelConfig; 4] {
        [
            ChannelConfig::Two64,
            ChannelConfig::Four32,
            ChannelConfig::Eight16,
            ChannelConfig::Sixteen8,
        ]
    }
}

/// Passive (fixed routing, pipelined) versus configurable backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackplaneKind {
    /// The “simple pipelined, passive” test backplane: connections are
    /// fixed after the first configuration, and each slot-to-slot hop adds
    /// one pipeline cycle of latency.
    PassivePipelined,
    /// A configurable backplane: connections can be torn down and
    /// re-routed under host control.
    Configurable,
}

/// Errors from backplane configuration or use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AabError {
    /// Slot index out of range.
    BadSlot(usize),
    /// Connecting a slot to itself.
    SelfConnection(usize),
    /// Requested more channels than the slot has free.
    ChannelsExhausted {
        /// The slot without enough free channels.
        slot: usize,
        /// Channels requested.
        requested: usize,
        /// Channels still free.
        free: usize,
    },
    /// Tried to reconfigure a passive backplane.
    PassiveNotReconfigurable,
    /// Unknown connection id.
    BadConnection(usize),
}

impl fmt::Display for AabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AabError::BadSlot(s) => write!(f, "slot {s} out of range"),
            AabError::SelfConnection(s) => write!(f, "slot {s} connected to itself"),
            AabError::ChannelsExhausted {
                slot,
                requested,
                free,
            } => {
                write!(
                    f,
                    "slot {slot}: requested {requested} channels, {free} free"
                )
            }
            AabError::PassiveNotReconfigurable => {
                write!(f, "the passive backplane cannot be reconfigured")
            }
            AabError::BadConnection(c) => write!(f, "no connection {c}"),
        }
    }
}

impl std::error::Error for AabError {}

/// Handle to a configured point-to-point connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionId(usize);

/// One configured connection.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Endpoint slot A.
    pub from: usize,
    /// Endpoint slot B.
    pub to: usize,
    /// Channels reserved (indices within the slot's channel set).
    pub channels: usize,
    busy_until: SimTime,
    bytes_moved: u64,
}

/// The Active Backplane.
#[derive(Debug, Clone)]
pub struct Aab {
    kind: BackplaneKind,
    slots: usize,
    clock: Frequency,
    config: ChannelConfig,
    connections: Vec<Connection>,
    free_channels: Vec<usize>,
    slot_stats: Vec<SlotStats>,
}

impl Aab {
    /// A backplane with `slots` slots in the default 4×32-bit granularity,
    /// clocked at the paper's 66 MHz.
    pub fn new(kind: BackplaneKind, slots: usize) -> Self {
        Self::with_config(kind, slots, ChannelConfig::Four32)
    }

    /// A backplane with an explicit channel granularity.
    pub fn with_config(kind: BackplaneKind, slots: usize, config: ChannelConfig) -> Self {
        assert!(slots >= 2, "a backplane needs at least two slots");
        Aab {
            kind,
            slots,
            clock: Frequency::from_mhz(66),
            config,
            connections: Vec::new(),
            free_channels: vec![config.channels(); slots],
            slot_stats: vec![SlotStats::default(); slots],
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The channel granularity in effect.
    pub fn config(&self) -> ChannelConfig {
        self.config
    }

    /// The bus clock.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Peak bandwidth available to one slot with all channels active:
    /// 128 bits × 66 MHz ≈ 1 GB/s (§2.3).
    pub fn slot_bandwidth(&self) -> Bandwidth {
        Bandwidth::of_bus(self.clock, self.config.total_width_bits())
    }

    /// Reserve `channels` channels between two slots. Returns the
    /// connection handle.
    pub fn connect(
        &mut self,
        from: usize,
        to: usize,
        channels: usize,
    ) -> Result<ConnectionId, AabError> {
        if from >= self.slots {
            return Err(AabError::BadSlot(from));
        }
        if to >= self.slots {
            return Err(AabError::BadSlot(to));
        }
        if from == to {
            return Err(AabError::SelfConnection(from));
        }
        for &slot in &[from, to] {
            let free = self.free_channels[slot];
            if channels > free {
                return Err(AabError::ChannelsExhausted {
                    slot,
                    requested: channels,
                    free,
                });
            }
        }
        self.free_channels[from] -= channels;
        self.free_channels[to] -= channels;
        let id = ConnectionId(self.connections.len());
        self.connections.push(Connection {
            from,
            to,
            channels,
            busy_until: SimTime::ZERO,
            bytes_moved: 0,
        });
        Ok(id)
    }

    /// Tear down a connection, releasing its channels. Only the
    /// configurable backplane supports this.
    pub fn disconnect(&mut self, id: ConnectionId) -> Result<(), AabError> {
        if self.kind == BackplaneKind::PassivePipelined {
            return Err(AabError::PassiveNotReconfigurable);
        }
        let conn = self
            .connections
            .get(id.0)
            .ok_or(AabError::BadConnection(id.0))?;
        if conn.channels == 0 {
            return Err(AabError::BadConnection(id.0));
        }
        let (from, to, ch) = (conn.from, conn.to, conn.channels);
        self.free_channels[from] += ch;
        self.free_channels[to] += ch;
        self.connections[id.0].channels = 0;
        Ok(())
    }

    /// The bandwidth of one connection (its reserved channels).
    pub fn connection_bandwidth(&self, id: ConnectionId) -> Bandwidth {
        let conn = &self.connections[id.0];
        Bandwidth::of_bus(
            self.clock,
            conn.channels as u32 * self.config.channel_width_bits(),
        )
    }

    /// Stream `bytes` over a connection, starting no earlier than `at` and
    /// no earlier than the connection's previous transfer's completion.
    /// Returns `(start, done)` times. Independent connections overlap
    /// freely — the 2 GB/s aggregate of §2.3.
    pub fn transfer(
        &mut self,
        id: ConnectionId,
        at: SimTime,
        bytes: u64,
    ) -> Result<(SimTime, SimTime), AabError> {
        let clock = self.clock;
        let kind = self.kind;
        let chan_width = self.config.channel_width_bits();
        let conn = self
            .connections
            .get_mut(id.0)
            .ok_or(AabError::BadConnection(id.0))?;
        if conn.channels == 0 {
            return Err(AabError::BadConnection(id.0));
        }
        let start = at.max(conn.busy_until);
        let bytes_per_cycle = (conn.channels as u64 * chan_width as u64) / 8;
        let cycles = bytes.div_ceil(bytes_per_cycle);
        // The pipelined passive backplane adds per-hop register latency.
        let hops = conn.from.abs_diff(conn.to) as u64;
        let latency = match kind {
            BackplaneKind::PassivePipelined => hops,
            BackplaneKind::Configurable => 1,
        };
        let done = start + clock.cycles(cycles + latency);
        conn.busy_until = done;
        conn.bytes_moved += bytes;
        let (from, to) = (conn.from, conn.to);
        let occupied = done.since(start);
        for slot in [from, to] {
            let s = &mut self.slot_stats[slot];
            s.bytes_moved += bytes;
            s.busy += occupied;
            s.transfers += 1;
        }
        Ok((start, done))
    }

    /// Total bytes moved over a connection.
    pub fn bytes_moved(&self, id: ConnectionId) -> u64 {
        self.connections[id.0].bytes_moved
    }

    /// Per-slot transfer accounting (bytes, occupancy, transfer count).
    pub fn slot_stats(&self, slot: usize) -> SlotStats {
        self.slot_stats[slot]
    }

    /// The busiest slot's occupancy over `elapsed` — the backplane
    /// pressure signal the cluster router folds into its load metric.
    pub fn peak_slot_utilization(&self, elapsed: SimDuration) -> f64 {
        self.slot_stats
            .iter()
            .map(|s| s.utilization(elapsed))
            .fold(0.0, f64::max)
    }

    /// The aggregate bandwidth of all live connections.
    pub fn aggregate_bandwidth(&self) -> Bandwidth {
        let bits: u64 = self
            .connections
            .iter()
            .filter(|c| c.channels > 0)
            .map(|c| c.channels as u64 * self.config.channel_width_bits() as u64)
            .sum();
        Bandwidth::from_bytes_per_sec((self.clock.as_hz() * bits / 8).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularities_all_repartition_128_lines() {
        for cfg in ChannelConfig::all() {
            assert_eq!(cfg.total_width_bits(), 128, "{cfg:?}");
        }
        assert_eq!(ChannelConfig::Sixteen8.channels(), 16);
        assert_eq!(ChannelConfig::Two64.channel_width_bits(), 64);
    }

    #[test]
    fn slot_bandwidth_is_about_1gbs() {
        let aab = Aab::new(BackplaneKind::PassivePipelined, 4);
        let bw = aab.slot_bandwidth();
        assert_eq!(bw.as_bytes_per_sec(), 1_056_000_000, "128 bit × 66 MHz");
    }

    #[test]
    fn full_width_connection_streams_at_slot_rate() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 4);
        let c = aab.connect(0, 1, 4).unwrap();
        let bytes = 1_056_000_000; // one second's worth
        let (start, done) = aab.transfer(c, SimTime::ZERO, bytes).unwrap();
        let elapsed = done.since(start);
        let rate = Bandwidth::measured(bytes, elapsed);
        assert!((rate - 1.056e9).abs() / 1.056e9 < 0.001, "rate {rate}");
    }

    #[test]
    fn two_pairs_aggregate_to_2gbs() {
        // §2.3's example: two independent ACB↔AIB pairs.
        let mut aab = Aab::new(BackplaneKind::Configurable, 4);
        let c1 = aab.connect(0, 1, 4).unwrap();
        let c2 = aab.connect(2, 3, 4).unwrap();
        assert!((aab.aggregate_bandwidth().as_mb_per_sec() - 2112.0).abs() < 1.0);
        // And they genuinely overlap in time.
        let bytes = 1 << 20;
        let (_, d1) = aab.transfer(c1, SimTime::ZERO, bytes).unwrap();
        let (_, d2) = aab.transfer(c2, SimTime::ZERO, bytes).unwrap();
        let serial_estimate = d1.since(SimTime::ZERO) + d2.since(SimTime::ZERO);
        let parallel = d1.max(d2).since(SimTime::ZERO);
        assert!(parallel < serial_estimate, "transfers overlap");
    }

    #[test]
    fn channels_are_a_finite_resource() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 3);
        aab.connect(0, 1, 3).unwrap();
        let err = aab.connect(0, 2, 2).unwrap_err();
        assert_eq!(
            err,
            AabError::ChannelsExhausted {
                slot: 0,
                requested: 2,
                free: 1
            }
        );
        aab.connect(0, 2, 1).unwrap();
    }

    #[test]
    fn disconnect_frees_channels_on_configurable_only() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 2);
        let c = aab.connect(0, 1, 4).unwrap();
        assert!(aab.connect(0, 1, 1).is_err());
        aab.disconnect(c).unwrap();
        assert!(aab.connect(0, 1, 4).is_ok());

        let mut passive = Aab::new(BackplaneKind::PassivePipelined, 2);
        let c = passive.connect(0, 1, 4).unwrap();
        assert_eq!(
            passive.disconnect(c).unwrap_err(),
            AabError::PassiveNotReconfigurable
        );
    }

    #[test]
    fn serialised_transfers_on_one_connection() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 2);
        let c = aab.connect(0, 1, 4).unwrap();
        let (_, d1) = aab.transfer(c, SimTime::ZERO, 4096).unwrap();
        let (s2, _) = aab.transfer(c, SimTime::ZERO, 4096).unwrap();
        assert_eq!(s2, d1, "second transfer queues behind the first");
    }

    #[test]
    fn narrow_connection_is_proportionally_slower() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 2);
        let wide = aab.connect(0, 1, 2).unwrap();
        let narrow = aab.connect(0, 1, 1).unwrap();
        let (_, dw) = aab.transfer(wide, SimTime::ZERO, 1 << 20).unwrap();
        let (_, dn) = aab.transfer(narrow, SimTime::ZERO, 1 << 20).unwrap();
        let ratio = dn.since(SimTime::ZERO).as_secs_f64() / dw.since(SimTime::ZERO).as_secs_f64();
        assert!(
            (ratio - 2.0).abs() < 0.01,
            "half the channels, twice the time: {ratio}"
        );
    }

    #[test]
    fn passive_backplane_adds_hop_latency() {
        let mut near = Aab::new(BackplaneKind::PassivePipelined, 8);
        let mut far = Aab::new(BackplaneKind::PassivePipelined, 8);
        let cn = near.connect(0, 1, 4).unwrap();
        let cf = far.connect(0, 7, 4).unwrap();
        let (_, dn) = near.transfer(cn, SimTime::ZERO, 16).unwrap();
        let (_, df) = far.transfer(cf, SimTime::ZERO, 16).unwrap();
        assert!(
            df > dn,
            "7 hops beat 1 hop only in latency: {df:?} vs {dn:?}"
        );
    }

    #[test]
    fn validation_errors() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 2);
        assert_eq!(aab.connect(0, 5, 1).unwrap_err(), AabError::BadSlot(5));
        assert_eq!(
            aab.connect(1, 1, 1).unwrap_err(),
            AabError::SelfConnection(1)
        );
        let c = aab.connect(0, 1, 1).unwrap();
        aab.disconnect(c).unwrap();
        assert!(
            aab.transfer(c, SimTime::ZERO, 8).is_err(),
            "dead connection"
        );
    }

    #[test]
    fn slot_stats_account_both_endpoints() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 4);
        let c01 = aab.connect(0, 1, 4).unwrap();
        let c23 = aab.connect(2, 3, 4).unwrap();
        let (_, d1) = aab.transfer(c01, SimTime::ZERO, 4096).unwrap();
        aab.transfer(c01, SimTime::ZERO, 4096).unwrap();
        aab.transfer(c23, SimTime::ZERO, 1024).unwrap();
        let s0 = aab.slot_stats(0);
        assert_eq!(s0.bytes_moved, 8192);
        assert_eq!(s0.transfers, 2);
        assert!(s0.busy >= d1.since(SimTime::ZERO));
        assert_eq!(aab.slot_stats(0), aab.slot_stats(1), "both endpoints");
        assert_eq!(aab.slot_stats(2).bytes_moved, 1024);
        // A slot busy the whole elapsed window reads as saturated.
        let elapsed = s0.busy;
        assert!((aab.slot_stats(0).utilization(elapsed) - 1.0).abs() < 1e-9);
        assert!(aab.peak_slot_utilization(elapsed * 4) < 0.6);
        assert_eq!(aab.slot_stats(0).utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn bytes_moved_accumulates() {
        let mut aab = Aab::new(BackplaneKind::Configurable, 2);
        let c = aab.connect(0, 1, 4).unwrap();
        aab.transfer(c, SimTime::ZERO, 100).unwrap();
        aab.transfer(c, SimTime::ZERO, 200).unwrap();
        assert_eq!(aab.bytes_moved(c), 300);
    }
}
