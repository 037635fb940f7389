//! Shared TRT-scale workload for the CHDL engine benches.
//!
//! `chdl_engine` and `chdl_fusion` both measure the same netlist — the
//! externally-interfaced TRT histogrammer at full scale — and each used
//! to carry a private copy of its construction, stimulus and
//! ledger-printing code. One copy lives here instead, so the two benches
//! provably time the same workload.

use atlantis_chdl::{Design, EngineStats, NetoptLedger, Signal, Sim};
use std::time::Instant;

/// Straw count of the TRT-scale netlist (and modulus of the hit stream).
pub const STRAWS: u64 = 16_384;

/// TRT-scale: thousands of straws, multi-pass histogramming, a wide
/// counter bank — hundreds of micro-ops deep with on-chip memories.
pub fn trt_scale_design() -> Design {
    atlantis_apps::trt::fpga::build_external_design(STRAWS as u32, 8, 64)
}

/// Redundant shapes grafted by [`trt_redundant_design`].
pub const REDUNDANT_SHAPES: usize = 120;

/// Coerce `s` to exactly `w` bits: slice down or zero-extend via concat.
fn fit(d: &mut Design, s: Signal, w: u8) -> Signal {
    use std::cmp::Ordering;
    match s.width().cmp(&w) {
        Ordering::Equal => s,
        Ordering::Greater => d.slice(s, 0, w),
        Ordering::Less => {
            let zeros = d.lit(0, w - s.width());
            d.concat(zeros, s)
        }
    }
}

/// The TRT-scale netlist with [`REDUNDANT_SHAPES`] deterministic
/// redundancy shapes grafted on top: dead cones nothing consumes,
/// duplicated subexpressions elaborated twice, constant-only cones and
/// identity chains — the netlist optimizer's targets, at bench scale.
/// The histogrammer itself is untouched; the live shapes drain into one
/// extra output (`redundant_probe`) so sharing and folding stay
/// observable rather than trivially dead.
pub fn trt_redundant_design() -> Design {
    let mut d = trt_scale_design();
    let hit = d.signal("hit").unwrap();
    let thr = d.signal("threshold").unwrap();
    let w = hit.width();
    let x = hit;
    let y = fit(&mut d, thr, w);
    let mut acc = d.lit(0, w);
    for k in 0..REDUNDANT_SHAPES {
        match k % 4 {
            0 => {
                // Dead cone: three chained gates, never consumed.
                let a = d.mul(x, y);
                let b = d.sub(a, x);
                let _dead = d.xor(b, y);
            }
            1 => {
                // The same subtree elaborated twice — CSE bait.
                let mut arms = Vec::new();
                for _ in 0..2 {
                    let p = d.xor(x, y);
                    let q = d.and(x, y);
                    arms.push(d.add(p, q));
                }
                let z = d.or(arms[0], arms[1]);
                acc = d.xor(acc, z);
            }
            2 => {
                // Constant-only cone: folds to a single literal.
                let c1 = d.lit(0x155 ^ (k as u64), w);
                let c2 = d.lit(0x0a3, w);
                let c3 = d.mul(c1, c2);
                let c4 = d.xor(c3, c1);
                let z = d.add(x, c4);
                acc = d.xor(acc, z);
            }
            _ => {
                // Identity chain: every link aliases back to `x`.
                let zero = d.lit(0, w);
                let one = d.lit(1, w);
                let i1 = d.add(x, zero);
                let i2 = d.mul(i1, one);
                let i3 = d.or(zero, i2);
                acc = d.xor(acc, i3);
            }
        }
    }
    d.expose_output("redundant_probe", acc);
    d
}

/// Prime the quasi-static input ports so the netlist streams hits.
pub fn drive_trt(sim: &mut Sim) {
    sim.set("hit", 1234);
    sim.set("valid", 1);
    sim.set("clear", 0);
    sim.set("pass", 3);
    sim.set("threshold", 5);
    sim.set("counter_sel", 7);
}

/// `cycles` edges of a realistic TRT stream: a fresh hit address and pass
/// index every cycle — histogramming never holds its inputs still, so the
/// whole decode/gate/select cone re-evaluates each edge. Returns ns/cycle
/// and a rolling output digest for cross-checking configurations.
pub fn measure_trt(sim: &mut Sim, trt: &Design, cycles: u64) -> (f64, u64) {
    let hit = trt.signal("hit").unwrap();
    let pass = trt.signal("pass").unwrap();
    let out = trt.signal("counter_out").unwrap();
    sim.get_signal(out); // settle before the clock starts
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let mut digest = 0u64;
    let t0 = Instant::now();
    for i in 0..cycles {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.set_signal(hit, x % STRAWS);
        sim.set_signal(pass, i % 8);
        digest = digest.rotate_left(1) ^ sim.get_signal(out);
        sim.step();
    }
    (t0.elapsed().as_nanos() as f64 / cycles as f64, digest)
}

/// Print the lowering/fusion ledger of a compiled TRT sim: stream sizes
/// before/after fusion, the rewrite counters, and the superop census.
pub fn print_fusion_ledger(stats: &EngineStats) {
    println!(
        "\nTRT-scale: {} ops lowered -> {} after fusion ({} superops, {} folded, {} imm rewrites, {} elided)",
        stats.ops_lowered,
        stats.ops_final,
        stats.ops_fused,
        stats.consts_folded,
        stats.imm_rewrites,
        stats.ops_elided
    );
    for (name, count) in &stats.superops {
        println!("  {name:>8}: {count}");
    }
}

/// Print the dispatch/compile ledger of a compiled TRT sim: how many
/// evals ran the threaded program and what the closure compiler built.
pub fn print_dispatch_ledger(stats: &EngineStats) {
    println!(
        "dispatch: {} threaded evals ({} compiles, {} blocks, {} closures, {:.1} us compile)",
        stats.evals_threaded,
        stats.compiles,
        stats.blocks_built,
        stats.closures_specialized,
        stats.compile_ns as f64 / 1_000.0
    );
}

/// Print the ledger of one [`Design::optimized`] run: live node counts
/// before/after the pass pipeline and the per-pass tallies.
pub fn print_netopt_ledger(ledger: &NetoptLedger) {
    println!(
        "netopt: {} -> {} nodes ({:.1}% reduction; {} folds, {} shared, {} dead, {} iterations)",
        ledger.nodes_before,
        ledger.nodes_after,
        100.0 * ledger.node_reduction(),
        ledger.consts_folded,
        ledger.subexprs_shared,
        ledger.dead_gates,
        ledger.iterations,
    );
}

/// Stream `cycles` TRT edges through a default `Sim` of `design`; returns
/// the engine ledger and the output digest.
fn streamed(design: &Design, cycles: u64) -> (EngineStats, u64) {
    let mut sim = Sim::new(design);
    drive_trt(&mut sim);
    let (_, digest) = measure_trt(&mut sim, design, cycles);
    (sim.engine_stats().unwrap().clone(), digest)
}

/// Netlist-optimizer floors, checked by the `chdl_fusion` bench (the
/// artifact's only writer): the TRT design as [`Design::optimized`]
/// returns it must lower strictly fewer micro-ops than the design as
/// elaborated, with a bit-identical digest, and on the deliberately
/// redundant netlist
/// ([`trt_redundant_design`]) the pass pipeline must remove ≥10% of the
/// nodes. Each stream's post-fusion op count is recorded alongside: CSE
/// shares structure fusion would otherwise absorb, so the optimized TRT
/// stream fuses to more ops than the raw one. Always writes
/// `BENCH_netopt.json`; returns whether every check passed.
pub fn write_netopt_artifact(test_mode: bool) -> bool {
    let mut c = crate::Checker::new();
    let cycles: u64 = if test_mode { 4_000 } else { 40_000 };

    // Plain TRT: optimized copy vs the design as elaborated.
    let trt = trt_scale_design();
    let (trt_opt, ledger) = trt.optimized();
    let (opt, digest_opt) = streamed(&trt_opt, cycles);
    let (raw, digest_raw) = streamed(&trt, cycles);
    print_netopt_ledger(&ledger);
    println!(
        "netopt: TRT micro-ops {} (optimized) vs {} (raw); {} vs {} after fusion",
        opt.ops_lowered, raw.ops_lowered, opt.ops_final, raw.ops_final
    );
    c.check(
        "netopt: optimized TRT digest agrees with the raw-stream digest",
        digest_opt == digest_raw,
    );
    c.check(
        "netopt: optimized TRT lowers fewer micro-ops than the raw stream",
        opt.ops_lowered < raw.ops_lowered,
    );
    c.check_band(
        "TRT netopt node reduction percent (>= 10 required)",
        100.0 * ledger.node_reduction(),
        10.0,
        100.0,
    );
    c.check_band(
        "TRT optimized micro-ops after fusion (recorded)",
        opt.ops_final as f64,
        1.0,
        1e9,
    );
    c.check_band(
        "TRT raw micro-ops after fusion (recorded)",
        raw.ops_final as f64,
        1.0,
        1e9,
    );

    // Redundant TRT: the pipeline must clear the grafted redundancy.
    let red = trt_redundant_design();
    let (red_opt, rledger) = red.optimized();
    let (ropt, rdigest_opt) = streamed(&red_opt, cycles);
    let (rraw, rdigest_raw) = streamed(&red, cycles);
    print_netopt_ledger(&rledger);
    println!(
        "netopt: redundant TRT micro-ops {} (optimized) vs {} (raw); {} vs {} after fusion",
        ropt.ops_lowered, rraw.ops_lowered, ropt.ops_final, rraw.ops_final
    );
    c.check(
        "netopt: optimized redundant-TRT digest agrees with the raw-stream digest",
        rdigest_opt == rdigest_raw,
    );
    c.check_band(
        "redundant TRT netopt node reduction percent (>= 10 required)",
        100.0 * rledger.node_reduction(),
        10.0,
        100.0,
    );
    c.check_band(
        "redundant TRT dead gates eliminated",
        rledger.dead_gates as f64,
        1.0,
        1e9,
    );
    c.check_band(
        "redundant TRT subexpressions shared",
        rledger.subexprs_shared as f64,
        1.0,
        1e9,
    );
    c.check_band(
        "redundant TRT constants folded",
        rledger.consts_folded as f64,
        1.0,
        1e9,
    );
    c.check_band(
        "redundant TRT optimized micro-ops after fusion (recorded)",
        ropt.ops_final as f64,
        1.0,
        1e9,
    );
    c.check_band(
        "redundant TRT raw micro-ops after fusion (recorded)",
        rraw.ops_final as f64,
        1.0,
        1e9,
    );

    crate::write_artifact("netopt", &c);
    c.finish_report().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trt_design_builds_and_streams() {
        let d = trt_scale_design();
        let mut sim = Sim::new(&d);
        drive_trt(&mut sim);
        let (ns, digest) = measure_trt(&mut sim, &d, 64);
        assert!(ns > 0.0);
        // A second sim fed the same stream produces the same digest.
        let mut sim2 = Sim::new(&d);
        drive_trt(&mut sim2);
        let (_, digest2) = measure_trt(&mut sim2, &d, 64);
        assert_eq!(digest, digest2);
    }

    #[test]
    fn redundant_design_shrinks_and_stays_equivalent() {
        let d = trt_redundant_design();
        let (opt, ledger) = d.optimized();
        let (_, a) = streamed(&opt, 64);
        let (_, b) = streamed(&d, 64);
        assert_eq!(a, b, "optimization changed the TRT stream");
        assert!(
            ledger.nodes_after < ledger.nodes_before,
            "redundancy not removed: {ledger:?}"
        );
    }
}
