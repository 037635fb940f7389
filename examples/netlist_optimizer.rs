//! The netlist optimizer applied to generated designs.
//!
//! CHDL designs come from host code, so resolved generics leave constant
//! multiplies, identity operations and dead branches behind. The optimizer
//! folds them away; this example shows the savings on a parameterised
//! filter and proves behavioural equivalence by co-simulation.
//!
//! The second half drives the mutable netlist IR directly
//! (`chdl::nir`, DESIGN.md §16): the pass pipeline runs to its fixed
//! point with per-pass accounting, a `dont_touch` pin survives every
//! pass, and the result exports as Graphviz Dot and structural Verilog.
//!
//! Run with: `cargo run --release --example netlist_optimizer`
//!       or: `cargo run --release --example netlist_optimizer -- --export DIR`
//! (the latter writes `windowed_fir.dot` / `windowed_fir.v` for the
//! optimized netlist into `DIR`; output is deterministic, byte-for-byte).

use atlantis::chdl::{Nir, PassManager};
use atlantis::prelude::*;
use atlantis::simcore::rng::WorkloadRng;

/// A generated FIR whose coefficient table includes zeros and ones —
/// exactly what a generic windowing function produces at the edges.
fn generated_fir(coeffs: &[u64]) -> Design {
    let mut d = Design::new("windowed_fir");
    let x = d.input("x", 16);
    let zero = d.lit(0, 16);
    let mut acc = zero;
    let mut delayed = x;
    for (i, &c) in coeffs.iter().enumerate() {
        let k = d.lit(c, 16);
        let term = d.mul(delayed, k);
        acc = d.add(acc, term);
        // Debug tap nobody reads in production builds:
        let _dead = d.xor(term, k);
        delayed = d.reg(format!("z{i}"), delayed);
    }
    d.expose_output("y", acc);
    d
}

fn main() {
    // A raised-cosine-ish window: zero/one coefficients at the edges.
    let coeffs = [0u64, 1, 9, 23, 31, 23, 9, 1, 0];
    let d = generated_fir(&coeffs);
    let before = d.stats();
    let (opt, ledger) = d.optimized();
    let after = opt.stats();

    println!("design '{}' ({} taps):", d.name(), coeffs.len());
    println!(
        "  before: {:>6} gates, {:>4} FFs, {:>3} components",
        before.gates, before.flip_flops, before.components
    );
    println!(
        "  after:  {:>6} gates, {:>4} FFs, {:>3} components",
        after.gates, after.flip_flops, after.components
    );
    println!(
        "  {} -> {} live nodes ({} constant folds, {} shared) — {:.0}% of the gates",
        ledger.nodes_before,
        ledger.nodes_after,
        ledger.consts_folded,
        ledger.subexprs_shared,
        (1.0 - after.gates as f64 / before.gates as f64) * 100.0
    );

    // Equivalence by co-simulation on random stimuli.
    let mut s1 = Sim::new(&d);
    let mut s2 = Sim::new(&opt);
    let mut rng = WorkloadRng::seed_from_u64(99);
    for _ in 0..500 {
        let v = rng.below(1 << 16);
        s1.set("x", v);
        s2.set("x", v);
        assert_eq!(s1.get("y"), s2.get("y"));
        s1.step();
        s2.step();
    }
    println!("\nco-simulated 500 cycles on random stimuli: outputs identical ✓");

    // Both fit — but the optimized one reports the honest footprint.
    let dev = Device::orca_3t125();
    let f1 = fit(&d, &dev).unwrap();
    let f2 = fit(&opt, &dev).unwrap();
    println!(
        "fitter view: {:.2}% → {:.2}% of the ORCA 3T125",
        f1.report().gate_utilization * 100.0,
        f2.report().gate_utilization * 100.0
    );

    // ---- the netlist IR, driven directly ------------------------------
    // Same FIR, but with a pinned probe: `dont_touch` keeps the first
    // tap's product observable through every pass.
    let mut d2 = generated_fir(&coeffs);
    let probe = {
        let x = d2.signal("x").unwrap();
        let k = d2.lit(9, 16);
        let p = d2.mul(x, k);
        d2.set_dont_touch(p);
        d2.label("tap_probe", p);
        p
    };
    let _ = probe;

    let mut nir = Nir::from_design(&d2);
    let depth_before = nir.analyze().max_depth;
    let ledger = PassManager::standard().run(&mut nir);
    println!(
        "\nnir pipeline on '{}' (fixed point in {} iterations):",
        d2.name(),
        ledger.iterations
    );
    for rec in &ledger.passes {
        println!(
            "  iter {}: {:<16} {:>4} rewrites",
            rec.iteration, rec.pass, rec.rewrites
        );
    }
    println!(
        "  {} -> {} live nodes ({:.0}% reduction), depth {} -> {}",
        ledger.nodes_before,
        ledger.nodes_after,
        ledger.node_reduction() * 100.0,
        depth_before,
        ledger.max_depth_after,
    );
    let compact = nir.to_design();
    let pinned_alive = {
        let n2 = Nir::from_design(&compact);
        (0..n2.len() as u32).any(|i| n2.is_dont_touch(i))
    };
    assert!(pinned_alive, "the dont_touch probe must survive");
    println!("  dont_touch probe survived all passes ✓");

    // ---- Dot / Verilog export -----------------------------------------
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--export") {
        let dir = std::path::PathBuf::from(args.get(i + 1).map(String::as_str).unwrap_or("."));
        std::fs::create_dir_all(&dir).expect("create export dir");
        let dot = compact.to_dot();
        let verilog = compact.to_verilog();
        let dot_path = dir.join(format!("{}.dot", d2.name()));
        let v_path = dir.join(format!("{}.v", d2.name()));
        std::fs::write(&dot_path, &dot).expect("write dot");
        std::fs::write(&v_path, &verilog).expect("write verilog");
        println!(
            "\nexported {} ({} bytes) and {} ({} bytes)",
            dot_path.display(),
            dot.len(),
            v_path.display(),
            verilog.len()
        );
    }
}
