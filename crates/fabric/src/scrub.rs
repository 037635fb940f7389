//! Single-event-upset injection and configuration scrubbing.
//!
//! The paper lists “support for read-back/test” among the features that
//! drove the FPGA choice (§2). In the HEP environments ATLANTIS targeted,
//! configuration memory is exposed to radiation: a single-event upset
//! (SEU) silently flips a configuration bit and corrupts the logic. The
//! standard defence — then and now — is *scrubbing*: periodically read
//! back the configuration, compare against the golden image, and rewrite
//! any corrupted frames through partial reconfiguration.
//!
//! This module gives [`Fpga`] the full detection/repair ladder the guard
//! subsystem (`atlantis-guard`, DESIGN.md §11) builds on:
//!
//! * **Injection** — [`Fpga::inject_upset`] flips a configuration bit and
//!   leaves the frame's stored CRC stale, exactly as a real upset would;
//!   [`Fpga::inject_upset_stealthy`] additionally refreshes the stored
//!   CRC, modelling the (rarer) upsets a CRC read-back cannot see. Every
//!   injection is recorded in a pending-upset tracker
//!   ([`Fpga::pending_upsets`]) — the campaign driver's iterator over
//!   live corruption.
//! * **Cheap detection** — [`Fpga::crc_check`] models the configuration
//!   port's frame-CRC scan: the scrub controller streams the stored
//!   frame CRCs (four per config-clock cycle over its 32-bit test port)
//!   against shadow CRCs it maintains, so a scan costs cycles
//!   proportional to the frame *count*, not the image size.
//! * **Targeted repair** — [`Fpga::repair_upsets`] rewrites only the
//!   frames the CRC scan can identify, at one frame-write each.
//! * **Full scrub** — [`Fpga::scrub`] reads back everything, compares
//!   against the golden image and repairs all corruption (including
//!   CRC-stealthy flips), at full read-back cost plus per-frame repairs.
//!
//! The golden image is the fit's memoized one
//! ([`FittedDesign::bitstream`](crate::FittedDesign::bitstream)), shared
//! with every FPGA loaded from the same fit. An upset lands in the FPGA's
//! own copy of the image, made on its first write.

use crate::bitstream::Frame;
use crate::config::{ConfigError, Fpga};
use atlantis_simcore::SimDuration;
use std::sync::Arc;

/// One injected-but-unrepaired configuration upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Upset {
    /// Configuration frame hit.
    pub frame: u32,
    /// Byte within the frame.
    pub byte: u32,
    /// Bit within the byte (0..8).
    pub bit: u8,
    /// Whether the stored frame CRC was refreshed (invisible to a CRC
    /// read-back; only a golden-image compare or result voting sees it).
    pub stealthy: bool,
}

/// Result of one scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Frames whose contents differed from the golden image.
    pub frames_repaired: u32,
    /// Frames whose stored CRC no longer matched their contents (a
    /// subset of the corruption detectable without a golden image).
    pub crc_detectable: u32,
    /// Virtual time for the pass (read-back + repairs).
    pub time: SimDuration,
}

/// Result of one frame-CRC scan ([`Fpga::crc_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcCheck {
    /// Frames whose stored CRC no longer matches their contents.
    pub stale_frames: u32,
    /// Virtual time of the scan (frame count / 4 config-clock cycles).
    pub time: SimDuration,
}

impl Fpga {
    /// Flip one bit of the live configuration — a simulated SEU.
    /// The frame's stored CRC is *not* updated, exactly as a real upset
    /// leaves the originally-computed CRC stale. Out-of-range frame or
    /// byte coordinates return [`ConfigError::UpsetOutOfRange`] instead
    /// of silently aliasing a different location.
    pub fn inject_upset(&mut self, frame: u32, byte: u32, bit: u8) -> Result<(), ConfigError> {
        self.inject(frame, byte, bit, false)
    }

    /// Like [`Fpga::inject_upset`], but the frame's stored CRC is
    /// recomputed over the corrupted contents — the upset a CRC
    /// read-back cannot see. Only a golden-image scrub (or re-execution
    /// voting at the serving layer) detects it.
    pub fn inject_upset_stealthy(
        &mut self,
        frame: u32,
        byte: u32,
        bit: u8,
    ) -> Result<(), ConfigError> {
        self.inject(frame, byte, bit, true)
    }

    fn inject(
        &mut self,
        frame: u32,
        byte: u32,
        bit: u8,
        stealthy: bool,
    ) -> Result<(), ConfigError> {
        let live = self.live_bitstream().ok_or(ConfigError::NotConfigured)?;
        let in_range = live
            .frames
            .get(frame as usize)
            .is_some_and(|f| (byte as usize) < f.data.len());
        if !in_range {
            return Err(ConfigError::UpsetOutOfRange { frame, byte });
        }
        // Checked before the write, so a rejected upset never copies the
        // shared image.
        let f = &mut self
            .live_bitstream_mut()
            .ok_or(ConfigError::NotConfigured)?
            .frames[frame as usize];
        let bit = bit % 8;
        f.data[byte as usize] ^= 1 << bit;
        if stealthy {
            *f = Frame::new(f.index, f.data.clone());
        }
        self.upsets_mut().push(Upset {
            frame,
            byte,
            bit,
            stealthy,
        });
        Ok(())
    }

    /// Whether the live configuration still matches its golden image —
    /// a read-back compare, so parts without read-back report
    /// [`ConfigError::ReadbackUnsupported`]. Compares in place: a live
    /// image no upset has copied is the golden image itself.
    pub fn integrity_ok(&self) -> Result<bool, ConfigError> {
        let golden = self.fitted().ok_or(ConfigError::NotConfigured)?.bitstream();
        if !self.device().readback {
            return Err(ConfigError::ReadbackUnsupported);
        }
        let live = self.live_bitstream().ok_or(ConfigError::NotConfigured)?;
        Ok(Arc::ptr_eq(live, &golden) || **live == *golden)
    }

    /// A deterministic digest of the pending upsets — what the guard
    /// layer folds into a job's checksum to model the corrupted logic
    /// producing a wrong (but reproducible) answer. Zero when no upset
    /// is pending.
    pub fn upset_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut push = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for u in self.pending_upsets() {
            push(u.frame as u64);
            push(u.byte as u64);
            push(u.bit as u64 | (u.stealthy as u64) << 8);
        }
        if self.pending_upsets().is_empty() {
            0
        } else {
            h
        }
    }

    /// The configuration port's frame-CRC scan: compare every frame's
    /// stored CRC against the controller's shadow CRC, streaming four
    /// CRC words per config-clock cycle. Detects exactly the frames a
    /// normal upset leaves stale — CRC-stealthy corruption passes. Costs
    /// `⌈frames / 4⌉` config-clock cycles (≈ 21 µs on the ORCA 3T125),
    /// far below the full read-back a [`Fpga::scrub`] pays, which is
    /// what makes per-job integrity checking affordable.
    pub fn crc_check(&self) -> Result<CrcCheck, ConfigError> {
        let stale = self.stale_frames()?.len() as u32;
        let cycles = u64::from(self.device().config_frames.div_ceil(4));
        Ok(CrcCheck {
            stale_frames: stale,
            time: self.device().config_clock.cycles(cycles),
        })
    }

    /// The frames, in address order, that pending upsets left with a
    /// stale stored CRC — what the CRC scan sees.
    fn stale_frames(&self) -> Result<Vec<u32>, ConfigError> {
        let live = self.live_bitstream().ok_or(ConfigError::NotConfigured)?;
        let mut frames: Vec<u32> = self.pending_upsets().iter().map(|u| u.frame).collect();
        frames.sort_unstable();
        frames.dedup();
        frames.retain(|&f| !live.frames[f as usize].verify());
        Ok(frames)
    }

    /// Targeted repair: rewrite the golden contents of every frame the
    /// CRC scan can identify (stale stored CRC), at one frame-write
    /// each — the fast path after a detection, without the full
    /// read-back a periodic [`Fpga::scrub`] pays. CRC-stealthy upsets on
    /// *other* frames survive; stealthy flips sharing a repaired frame
    /// are healed with it.
    pub fn repair_upsets(&mut self) -> Result<ScrubReport, ConfigError> {
        let golden = self.fitted().ok_or(ConfigError::NotConfigured)?.bitstream();
        let healed = self.stale_frames()?;
        if !healed.is_empty() {
            let live = self
                .live_bitstream_mut()
                .ok_or(ConfigError::NotConfigured)?;
            for &f in &healed {
                live.frames[f as usize] = golden.frames[f as usize].clone();
            }
        }
        self.upsets_mut().retain(|u| !healed.contains(&u.frame));
        let repaired = healed.len() as u32;
        let time = self.device().frame_config_time(repaired);
        self.note_repair(repaired, time);
        Ok(ScrubReport {
            frames_repaired: repaired,
            crc_detectable: repaired,
            time,
        })
    }

    /// One scrub pass: read back every frame, compare against the golden
    /// image, rewrite corrupted frames. Costs a full read-back plus one
    /// frame-write per repair. Clears the pending-upset tracker — after
    /// a scrub the whole image has been verified against the golden
    /// bitstream, stealthy corruption included.
    pub fn scrub(&mut self) -> Result<ScrubReport, ConfigError> {
        let golden = self.fitted().ok_or(ConfigError::NotConfigured)?.bitstream();
        let readback_time = self.device().full_config_time();
        let mut repaired = 0u32;
        let mut crc_detectable = 0u32;
        let live = self.live_bitstream().ok_or(ConfigError::NotConfigured)?;
        // A live image no write has copied is the golden image itself.
        if !Arc::ptr_eq(live, &golden) {
            let live = self
                .live_bitstream_mut()
                .ok_or(ConfigError::NotConfigured)?;
            for (live_f, golden_f) in live.frames.iter_mut().zip(&golden.frames) {
                if live_f.data != golden_f.data {
                    if !live_f.verify() {
                        crc_detectable += 1;
                    }
                    *live_f = golden_f.clone();
                    repaired += 1;
                }
            }
        }
        self.upsets_mut().clear();
        let time = readback_time + self.device().frame_config_time(repaired);
        self.note_scrub(repaired, time);
        Ok(ScrubReport {
            frames_repaired: repaired,
            crc_detectable,
            time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use crate::device::Device;
    use crate::fit::{fit, FittedDesign};
    use atlantis_chdl::Design;

    fn victim() -> FittedDesign {
        let mut d = Design::new("victim");
        let x = d.input("x", 16);
        let q = d.reg("r", x);
        d.expose_output("q", q);
        fit(&d, &Device::orca_3t125()).unwrap()
    }

    fn configured_fpga() -> Fpga {
        let mut fpga = Fpga::new(Device::orca_3t125());
        fpga.configure(victim()).unwrap();
        fpga
    }

    #[test]
    fn upsets_copy_the_image_and_stay_in_the_fpga_they_hit() {
        let fitted = Arc::new(victim());
        let golden = fitted.bitstream();
        let pristine = Bitstream::clone(&golden);
        let mut hit = Fpga::new(Device::orca_3t125());
        let mut other = Fpga::new(Device::orca_3t125());
        hit.configure(Arc::clone(&fitted)).unwrap();
        other.configure(Arc::clone(&fitted)).unwrap();
        for fpga in [&hit, &other] {
            assert!(
                Arc::ptr_eq(fpga.live_bitstream().unwrap(), &golden),
                "before any upset, both live images are the golden allocation"
            );
        }

        hit.inject_upset(10, 3, 5).unwrap();
        hit.inject_upset_stealthy(42, 7, 3).unwrap();
        assert!(!hit.integrity_ok().unwrap());
        assert_eq!(*fitted.bitstream(), pristine, "golden image untouched");
        assert_eq!(other.readback().unwrap(), pristine, "other FPGA untouched");
        assert!(other.integrity_ok().unwrap());

        assert_eq!(hit.repair_upsets().unwrap().frames_repaired, 1);
        assert!(!hit.integrity_ok().unwrap(), "the stealthy flip survives");
        assert_eq!(hit.scrub().unwrap().frames_repaired, 1);
        assert_eq!(hit.readback().unwrap(), pristine);
        assert!(hit.integrity_ok().unwrap());
        assert_eq!(*fitted.bitstream(), pristine);
    }

    #[test]
    fn integrity_needs_readback() {
        let mut fpga = Fpga::new(Device {
            readback: false,
            ..Device::orca_3t125()
        });
        assert_eq!(fpga.integrity_ok(), Err(ConfigError::NotConfigured));
        fpga.configure(victim()).unwrap();
        assert_eq!(fpga.integrity_ok(), Err(ConfigError::ReadbackUnsupported));
    }

    #[test]
    fn pristine_configuration_has_integrity() {
        let fpga = configured_fpga();
        assert!(fpga.integrity_ok().unwrap());
        assert!(fpga.pending_upsets().is_empty());
        assert_eq!(fpga.upset_digest(), 0);
    }

    #[test]
    fn upset_breaks_integrity_and_crc() {
        let mut fpga = configured_fpga();
        fpga.inject_upset(10, 3, 5).unwrap();
        assert!(!fpga.integrity_ok().unwrap());
        let rb = fpga.readback().unwrap();
        assert!(!rb.verify(), "a stale frame CRC exposes the flip");
        assert_eq!(fpga.pending_upsets().len(), 1);
        assert_ne!(fpga.upset_digest(), 0);
    }

    #[test]
    fn out_of_range_injection_is_rejected_not_aliased() {
        let mut fpga = configured_fpga();
        let dev = Device::orca_3t125();
        // Frame past the end.
        assert_eq!(
            fpga.inject_upset(dev.config_frames, 0, 0),
            Err(ConfigError::UpsetOutOfRange {
                frame: dev.config_frames,
                byte: 0
            })
        );
        // Byte past the end of an in-range frame (the old code wrapped
        // this onto byte `frame_bytes % len == 0` silently).
        assert_eq!(
            fpga.inject_upset(0, dev.frame_bytes, 1),
            Err(ConfigError::UpsetOutOfRange {
                frame: 0,
                byte: dev.frame_bytes
            })
        );
        assert!(
            fpga.integrity_ok().unwrap(),
            "a rejected injection must not corrupt anything"
        );
        assert!(fpga.pending_upsets().is_empty());
        // The last valid coordinate is accepted.
        fpga.inject_upset(dev.config_frames - 1, dev.frame_bytes - 1, 7)
            .unwrap();
        assert!(!fpga.integrity_ok().unwrap());
    }

    #[test]
    fn stealthy_upset_evades_crc_but_not_golden_compare() {
        let mut fpga = configured_fpga();
        fpga.inject_upset_stealthy(42, 7, 3).unwrap();
        assert!(!fpga.integrity_ok().unwrap(), "data is corrupted");
        assert!(
            fpga.readback().unwrap().verify(),
            "the refreshed CRC hides the flip from read-back"
        );
        assert_eq!(fpga.crc_check().unwrap().stale_frames, 0);
        // Targeted repair sees nothing to fix...
        assert_eq!(fpga.repair_upsets().unwrap().frames_repaired, 0);
        assert!(!fpga.integrity_ok().unwrap());
        // ...but the golden-image scrub catches it.
        let r = fpga.scrub().unwrap();
        assert_eq!(r.frames_repaired, 1);
        assert_eq!(r.crc_detectable, 0, "CRC alone could not have seen it");
        assert!(fpga.integrity_ok().unwrap());
        assert!(fpga.pending_upsets().is_empty());
    }

    #[test]
    fn crc_check_is_cheap_and_counts_stale_frames() {
        let mut fpga = configured_fpga();
        let clean = fpga.crc_check().unwrap();
        assert_eq!(clean.stale_frames, 0);
        assert!(
            clean.time * 100 < fpga.device().full_config_time(),
            "a CRC scan must cost far less than a read-back: {} vs {}",
            clean.time,
            fpga.device().full_config_time()
        );
        fpga.inject_upset(3, 0, 0).unwrap();
        fpga.inject_upset(3, 5, 1).unwrap(); // same frame
        fpga.inject_upset(700, 9, 2).unwrap();
        let c = fpga.crc_check().unwrap();
        assert_eq!(c.stale_frames, 2, "two distinct frames stale");
        assert_eq!(c.time, clean.time, "scan cost is data-independent");
    }

    #[test]
    fn repair_upsets_is_targeted_and_clears_the_tracker() {
        let mut fpga = configured_fpga();
        fpga.inject_upset(3, 0, 0).unwrap();
        fpga.inject_upset(700, 9, 2).unwrap();
        let r = fpga.repair_upsets().unwrap();
        assert_eq!(r.frames_repaired, 2);
        assert_eq!(
            r.time,
            fpga.device().frame_config_time(2),
            "repairs cost frame writes only — no full read-back"
        );
        assert!(fpga.integrity_ok().unwrap());
        assert!(fpga.pending_upsets().is_empty());
        assert_eq!(fpga.stats().scrub_passes, 0, "a repair is not a scrub pass");
        assert_eq!(fpga.stats().frames_scrubbed, 2);
    }

    #[test]
    fn reconfiguration_heals_pending_upsets() {
        let mut fpga = configured_fpga();
        fpga.inject_upset(10, 3, 5).unwrap();
        assert_eq!(fpga.pending_upsets().len(), 1);
        let fitted = Arc::clone(fpga.fitted().unwrap());
        fpga.partial_reconfigure(fitted).unwrap();
        assert!(fpga.pending_upsets().is_empty());
        assert!(fpga.integrity_ok().unwrap());
    }

    #[test]
    fn scrub_repairs_and_reports() {
        let mut fpga = configured_fpga();
        fpga.inject_upset(10, 3, 5).unwrap();
        fpga.inject_upset(200, 0, 0).unwrap();
        fpga.inject_upset(200, 1, 7).unwrap(); // second flip, same frame
        let report = fpga.scrub().unwrap();
        assert_eq!(report.frames_repaired, 2, "two distinct frames corrupted");
        assert_eq!(report.crc_detectable, 2);
        assert!(fpga.integrity_ok().unwrap());
        assert!(
            report.time > fpga.device().full_config_time(),
            "read-back + repairs"
        );
    }

    #[test]
    fn scrub_on_clean_device_repairs_nothing() {
        let mut fpga = configured_fpga();
        let report = fpga.scrub().unwrap();
        assert_eq!(report.frames_repaired, 0);
        assert_eq!(
            report.time,
            fpga.device().full_config_time(),
            "read-back only"
        );
    }

    #[test]
    fn even_bit_flips_cancelling_crc_are_caught_by_golden_compare() {
        // Two flips of the same bit restore the data; flip two *different*
        // bits so the data stays corrupted but craft the case where a CRC
        // could collide: the golden compare catches corruption regardless.
        let mut fpga = configured_fpga();
        fpga.inject_upset(5, 0, 0).unwrap();
        fpga.inject_upset(5, 0, 0).unwrap(); // cancels itself
        assert!(
            fpga.integrity_ok().unwrap(),
            "self-cancelling flips are harmless"
        );
        fpga.inject_upset(5, 0, 1).unwrap();
        assert!(!fpga.integrity_ok().unwrap());
        let r = fpga.scrub().unwrap();
        assert_eq!(r.frames_repaired, 1);
    }

    #[test]
    fn unconfigured_device_rejects_scrub_api() {
        let mut fpga = Fpga::new(Device::orca_3t125());
        assert!(matches!(
            fpga.inject_upset(0, 0, 0),
            Err(ConfigError::NotConfigured)
        ));
        assert!(matches!(
            fpga.inject_upset_stealthy(0, 0, 0),
            Err(ConfigError::NotConfigured)
        ));
        assert!(matches!(fpga.scrub(), Err(ConfigError::NotConfigured)));
        assert!(matches!(
            fpga.repair_upsets(),
            Err(ConfigError::NotConfigured)
        ));
        assert!(matches!(fpga.crc_check(), Err(ConfigError::NotConfigured)));
        assert!(matches!(
            fpga.integrity_ok(),
            Err(ConfigError::NotConfigured)
        ));
    }

    #[test]
    fn scrub_stats_accumulate() {
        let mut fpga = configured_fpga();
        fpga.inject_upset(1, 0, 0).unwrap();
        fpga.scrub().unwrap();
        fpga.inject_upset(2, 0, 0).unwrap();
        fpga.scrub().unwrap();
        let s = fpga.stats();
        assert_eq!(s.scrub_passes, 2);
        assert_eq!(s.frames_scrubbed, 2);
    }

    #[test]
    fn upset_digest_is_deterministic_and_order_sensitive() {
        let mut a = configured_fpga();
        let mut b = configured_fpga();
        for f in [7u32, 300, 7] {
            a.inject_upset(f, 1, 2).unwrap();
            b.inject_upset(f, 1, 2).unwrap();
        }
        assert_eq!(a.upset_digest(), b.upset_digest());
        a.scrub().unwrap();
        assert_eq!(a.upset_digest(), 0, "repair clears the digest");
    }
}
