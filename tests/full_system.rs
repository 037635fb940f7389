//! End-to-end integration: host → driver → board → FPGA → application,
//! spanning every crate in the workspace.

use atlantis::backplane::BackplaneKind;
use atlantis::board::{Acb, CpuClass};
use atlantis::core::{audit_system, AtlantisSystem, Coprocessor};
use atlantis::fabric::Device;
use atlantis::mem::WideWord;
use atlantis::prelude::*;
use atlantis::simcore::SimDuration;

#[test]
fn the_paper_resource_audit_passes() {
    for row in audit_system() {
        assert!(
            row.ok(),
            "{} — {}: expected {}, got {}",
            row.source,
            row.claim,
            row.expected,
            row.actual
        );
    }
}

#[test]
fn host_to_acb_dma_round_trip_through_the_system() {
    let mut sys = AtlantisSystem::builder()
        .host(CpuClass::Celeron450)
        .with_acbs(1)
        .build();
    let payload: Vec<u8> = (0..65536u32).map(|i| (i % 253) as u8).collect();
    let t_w = sys.acb(0).dma_write(0x1000, &payload);
    let (back, t_r) = sys.acb(0).dma_read(0x1000, payload.len());
    assert_eq!(back, payload);
    // 64 kB at ~100 MB/s each way lands well under 2 ms.
    assert!(t_w + t_r < SimDuration::from_millis(2), "{t_w} + {t_r}");
}

#[test]
fn aib_ingest_backplane_transfer_acb_chain() {
    let mut sys = AtlantisSystem::builder()
        .backplane(BackplaneKind::Configurable)
        .with_acbs(1)
        .with_aibs(1)
        .build();
    // External data arrives on AIB channel 0 and is buffered.
    let words = 8192u64;
    {
        let ch = sys.aib(0).channel_mut(0);
        for i in 0..words {
            assert!(ch.offer(WideWord::from_lanes(36, vec![i])));
            ch.pump(1);
        }
    }
    let ingest = sys.aib(0).channel(0).ingest_time(words);
    sys.advance(ingest);
    // Drain to the backplane and ship to the ACB.
    let drained = sys.aib(0).channel_mut(0).drain(words as usize);
    assert_eq!(drained.len(), words as usize);
    let conn = sys.connect_aib_to_acb(0, 0, 4).unwrap();
    let t = sys.backplane_transfer(conn, words * 4).unwrap();
    assert!(t < ingest, "the backplane outruns one 264 MB/s channel");
    // Order survived the FIFO chain.
    for (i, w) in drained.iter().enumerate() {
        assert_eq!(w.lanes()[0], i as u64);
    }
}

#[test]
fn fpga_on_acb_runs_a_design_loaded_over_the_driver() {
    // Configure an FPGA on a driver-attached ACB and push data through
    // the design — the microenable-style workflow of §2.4.
    let mut acb = Acb::new();
    let mut d = Design::new("checksum");
    let word = d.input("word", 32);
    let en = d.input("en", 1);
    let q = {
        let slot = d.reg_slot("sum", 32, 0);
        let qq = slot.q;
        let add = d.add(qq, word);
        d.set_reg_controls(&slot, Some(en), None);
        d.drive_reg(slot, add);
        qq
    };
    d.expose_output("sum", q);
    let fitted = fit(&d, &Device::orca_3t125()).unwrap();
    let t_cfg = acb.fpga_mut(0).configure(fitted).unwrap();
    assert!(
        t_cfg > SimDuration::from_millis(30),
        "configuration is not free: {t_cfg}"
    );

    let mut driver = atlantis::pci::Driver::open(acb);
    // DMA a block to the board, then feed it to the FPGA (host-side copy
    // models the host-I/O FPGA moving local-bus data into the design).
    let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
    driver.dma_write(0, &data);
    let (local, _) = driver.dma_read(0, data.len());
    let sim = driver.target_mut().fpga_mut(0).sim_mut().unwrap();
    sim.set("en", 1);
    let mut expect: u32 = 0;
    for chunk in local.chunks_exact(4) {
        let w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        expect = expect.wrapping_add(w);
        sim.set("word", w as u64);
        sim.step();
    }
    assert_eq!(sim.get("sum"), expect as u64);
}

#[test]
fn coprocessor_task_switching_is_functional_and_cheap() {
    let mut cop = Coprocessor::new(Device::orca_3t125());
    // Two tasks: sum and xor over a stream.
    for (name, is_xor) in [("sum", false), ("xor", true)] {
        let mut d = Design::new(name);
        let x = d.input("x", 16);
        let q = d.reg_feedback(
            "acc",
            16,
            |d, q| {
                if is_xor {
                    d.xor(q, x)
                } else {
                    d.add(q, x)
                }
            },
        );
        d.expose_output("acc", q);
        cop.register(name, &d).unwrap();
    }
    let t_first = cop.switch_to("sum").unwrap();
    {
        let sim = cop.fpga_mut().sim_mut().unwrap();
        for v in [1u64, 2, 3] {
            sim.set("x", v);
            sim.step();
        }
        assert_eq!(sim.get("acc"), 6);
    }
    let t_switch = cop.switch_to("xor").unwrap();
    {
        let sim = cop.fpga_mut().sim_mut().unwrap();
        for v in [0xF0u64, 0x0F, 0xFF] {
            sim.set("x", v);
            sim.step();
        }
        assert_eq!(sim.get("acc"), 0xF0 ^ 0x0F ^ 0xFF);
    }
    assert!(
        t_switch < t_first / 5,
        "switch {t_switch} vs full load {t_first}"
    );
}

#[test]
fn downscaled_test_system_slink_straight_into_the_acb() {
    // §2.1: the external LVDS connectors “can be used to attach I/O
    // modules, e.g. S-Link, to set up a downscaled or test system without
    // the need to add AAB and AIB modules.” Detector events arrive framed
    // on S-Link, land in the ACB's local RAM, and are histogrammed.
    use atlantis::apps::trt::{emulate_fpga_histogram, EventGenerator, PatternBank, TrtGeometry};
    use atlantis::board::SLinkPort;
    use atlantis::simcore::rng::WorkloadRng;

    let g = TrtGeometry::small();
    let mut rng = WorkloadRng::seed_from_u64(12);
    let bank = PatternBank::generate(g, 32, &mut rng);
    let event = EventGenerator::new(g).generate(&bank, &mut rng);

    // Frame the hit list onto the link.
    let mut port = SLinkPort::default_link();
    let stream = port.frame_event(&event.hits);
    let t_link = port.transfer_time(stream.len() as u64);

    // The receiving FPGA (ExternalIo role) deposits the payload into the
    // board's local RAM; the host reads it back over PCI for checking.
    let mut acb = Acb::new();
    assert_eq!(Acb::role(3), atlantis::board::FpgaRole::ExternalIo);
    let events = SLinkPort::parse_events(&stream);
    assert_eq!(events.len(), 1);
    let payload: Vec<u8> = events[0].iter().flat_map(|w| w.to_le_bytes()).collect();
    use atlantis::pci::LocalBusTarget;
    acb.local_write(0, &payload);

    let mut driver = atlantis::pci::Driver::open(acb);
    let (back, t_pci) = driver.dma_read(0, payload.len());
    let hits: Vec<u32> = back
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    assert_eq!(
        hits, event.hits,
        "the hit list survived link + local bus + PCI"
    );

    // And the physics still works.
    let lut = bank.lut(16);
    let hist = emulate_fpga_histogram(&lut, &hits, bank.len());
    assert_eq!(hist, bank.reference_histogram(&event.active));

    // The 160 MB/s link outruns PCI for this event size only because of
    // DMA setup; both stay in the microsecond class.
    assert!(t_link < SimDuration::from_micros(10));
    assert!(t_pci < SimDuration::from_micros(100));
}

#[test]
fn two_pairs_reach_the_aggregate_bandwidth_claim() {
    let mut sys = AtlantisSystem::builder()
        .backplane(BackplaneKind::Configurable)
        .with_acbs(2)
        .with_aibs(2)
        .build();
    sys.connect_aib_to_acb(0, 0, 4).unwrap();
    sys.connect_aib_to_acb(1, 1, 4).unwrap();
    let agg = sys.aab.aggregate_bandwidth().as_mb_per_sec();
    assert!((2000.0..=2120.0).contains(&agg), "§2.3's 2 GB/s: {agg}");
}
