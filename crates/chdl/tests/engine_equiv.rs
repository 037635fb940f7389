//! Randomized co-simulation of the three execution paths:
//!
//! * the **compiled engine** (micro-op stream, the default),
//! * the **tree-walking interpreter** (the reference oracle), and
//! * the compiled engine running the **optimizer's output**
//!   ([`Design::optimized`]).
//!
//! For generated netlists (shared generator in `netgen`) mixing arithmetic,
//! logic, muxes, slices, concats, registers (with enables/clears), FSMs and
//! a memory with write port plus async and sync read ports, all three must
//! produce bit-exact outputs on every cycle of a shared random stimulus —
//! at least 1000 cycles per case, covering both per-cycle stepping (the
//! incremental path) and [`Sim::run_batch`] (the fused dense path) — and
//! identical final memory contents.

mod netgen;

use atlantis_chdl::prelude::*;
use atlantis_chdl::sim::ExecMode;
use atlantis_chdl::{DispatchMode, EngineConfig};
use netgen::{
    build_design, build_design_with_chain, build_wide_design, wide_inputs, XorShift, MEM_WORDS,
    N_INPUTS, WIDE_LEVELS, WIDE_SPAN, WIDE_TAIL,
};
use proptest::prelude::*;

/// Every engine tuning the equivalence suites co-simulate against the
/// interpreter: fusion, adaptive sweeps and dispatch backend.
fn engine_matrix() -> [EngineConfig; 8] {
    [
        EngineConfig::default(), // fused, adaptive, auto dispatch
        EngineConfig::unfused(), // raw stream, per-op, match
        EngineConfig {
            adaptive: true,
            dispatch: DispatchMode::Match, // adaptive sweeps, match dispatch
            ..EngineConfig::default()
        },
        EngineConfig {
            adaptive: true,
            dispatch: DispatchMode::Threaded, // adaptive sweeps, closure chains
            ..EngineConfig::default()
        },
        EngineConfig {
            fuse: false,
            adaptive: true,
            dispatch: DispatchMode::Threaded, // adaptive threaded, raw stream
        },
        EngineConfig::serial(), // per-op drain, match
        EngineConfig {
            adaptive: false,
            dispatch: DispatchMode::Threaded, // per-op drain, closure chains
            ..EngineConfig::default()
        },
        EngineConfig {
            adaptive: false,
            dispatch: DispatchMode::Auto, // per-op drain, auto dispatch
            ..EngineConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ≥1000 cycles per case: 600 individually stepped with fresh inputs
    /// each cycle (exercises the incremental dirty-queue path), then a
    /// 424-cycle fused batch with inputs held (exercises the dense path).
    #[test]
    fn three_way_equivalence(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..40),
        seed in any::<u64>(),
    ) {
        let (design, outputs) = build_design(&recipes);
        let (optimized, _) = design.optimized();

        let mut compiled = Sim::new(&design);
        let mut oracle = Sim::with_mode(&design, ExecMode::Interpreted);
        let mut opt_sim = Sim::new(&optimized);
        prop_assert_eq!(compiled.mode(), ExecMode::Compiled);
        prop_assert_eq!(oracle.mode(), ExecMode::Interpreted);

        let mut stim = XorShift(seed);
        for cycle in 0..600u32 {
            for i in 0..N_INPUTS {
                let v = stim.next();
                compiled.set(&format!("in{i}"), v);
                oracle.set(&format!("in{i}"), v);
                opt_sim.set(&format!("in{i}"), v);
            }
            for name in &outputs {
                let c = compiled.get(name);
                let o = oracle.get(name);
                let p = opt_sim.get(name);
                prop_assert_eq!(c, o, "compiled vs oracle: {} cycle {}", name, cycle);
                prop_assert_eq!(c, p, "compiled vs optimized: {} cycle {}", name, cycle);
            }
            compiled.step();
            oracle.step();
            opt_sim.step();
        }

        // Batch phase: inputs held steady, fused fast path vs stepping.
        compiled.run_batch(424);
        oracle.run(424);
        opt_sim.run_batch(424);
        for name in &outputs {
            let c = compiled.get(name);
            let o = oracle.get(name);
            let p = opt_sim.get(name);
            prop_assert_eq!(c, o, "post-batch compiled vs oracle: {}", name);
            prop_assert_eq!(c, p, "post-batch compiled vs optimized: {}", name);
        }
        prop_assert_eq!(compiled.cycle(), 1024);
        prop_assert_eq!(oracle.cycle(), 1024);

        // Memory contents must agree word for word.
        let mem = design.find_memory("m").unwrap();
        prop_assert_eq!(compiled.dump_mem(mem), oracle.dump_mem(mem));
        if let Some(opt_mem) = optimized.find_memory("m") {
            prop_assert_eq!(compiled.dump_mem(mem), opt_sim.dump_mem(opt_mem));
        }
    }

    /// Fused-vs-unfused, adaptive-vs-per-op and threaded-vs-match
    /// co-simulation on netlists with deep combinational chains and
    /// memory traffic. Every 13th stepped cycle holds the inputs and
    /// instead pokes every word of memory `m` through the backdoor, which
    /// the adaptive sweeps, per-op draining and the threaded program's
    /// drop-and-rebuild must all see. Every engine tuning must
    /// be bit-exact with the interpreter oracle, and the deep chain
    /// guarantees the fusion pass actually fires.
    #[test]
    fn fused_and_adaptive_equivalence(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..24),
        depth in 64usize..160,
        seed in any::<u64>(),
    ) {
        let (design, outputs) = build_design_with_chain(&recipes, depth);
        let mem = design.find_memory("m").unwrap();

        let mut oracle = Sim::with_mode(&design, ExecMode::Interpreted);
        let configs = engine_matrix();
        let mut sims: Vec<Sim> = configs
            .iter()
            .map(|&c| Sim::with_config(&design, ExecMode::Compiled, c))
            .collect();
        let fused_stats = sims[0].engine_stats().unwrap().clone();
        prop_assert!(fused_stats.ops_fused > 0, "deep chain produced no superops");
        prop_assert!(
            fused_stats.ops_final < fused_stats.ops_lowered,
            "fusion did not shrink the stream"
        );

        let mut stim = XorShift(seed);
        for cycle in 0..200u32 {
            if cycle % 13 == 0 {
                // Inputs held, so only the pokes can re-evaluate the
                // memory's async read cones this cycle.
                for addr in 0..MEM_WORDS {
                    let v = stim.next() & 0xFFF;
                    oracle.poke_mem(mem, addr, v);
                    for sim in &mut sims {
                        sim.poke_mem(mem, addr, v);
                    }
                }
            } else {
                let vals: Vec<u64> = (0..N_INPUTS).map(|_| stim.next()).collect();
                for (i, v) in vals.iter().enumerate() {
                    oracle.set(&format!("in{i}"), *v);
                    for sim in &mut sims {
                        sim.set(&format!("in{i}"), *v);
                    }
                }
            }
            for name in &outputs {
                let want = oracle.get(name);
                for (k, sim) in sims.iter_mut().enumerate() {
                    prop_assert_eq!(
                        sim.get(name), want,
                        "config {} vs oracle: {} cycle {}", k, name, cycle
                    );
                }
            }
            oracle.step();
            for sim in &mut sims {
                sim.step();
            }
        }

        // Batch phase: fused dense/cascade sweeps vs the oracle.
        oracle.run(100);
        for sim in &mut sims {
            sim.run_batch(100);
        }
        for name in &outputs {
            let want = oracle.get(name);
            for (k, sim) in sims.iter_mut().enumerate() {
                prop_assert_eq!(sim.get(name), want, "post-batch config {}: {}", k, name);
            }
        }
        for sim in &sims {
            prop_assert_eq!(sim.dump_mem(mem), oracle.dump_mem(mem));
        }
    }

    /// The backdoor must invalidate the compiled engine's read cones just
    /// like it marks the interpreter dirty. Each poke hits the word the
    /// held `addr` input already selects, after `ra` has settled on the
    /// old contents, and `ra` is read with no `set` in between — so only
    /// the poke's own invalidation can make the engine re-read the word.
    #[test]
    fn backdoor_pokes_stay_equivalent(
        pokes in proptest::collection::vec((0usize..MEM_WORDS, any::<u64>()), 1..32),
        seed in any::<u64>(),
    ) {
        let mut d = Design::new("poked");
        let addr = d.input("addr", 5);
        let mem = d.memory("m", MEM_WORDS, 16);
        let ra = d.read_async(mem, addr);
        let rs = d.read_sync(mem, addr);
        d.expose_output("ra", ra);
        d.expose_output("rs", rs);

        let mut compiled = Sim::new(&d);
        // The stream is far below the Auto threshold, so force the closure
        // chains on: pokes must drop the compiled program, not stale-read it.
        let mut threaded = Sim::with_config(
            &d,
            ExecMode::Compiled,
            EngineConfig { dispatch: DispatchMode::Threaded, ..EngineConfig::default() },
        );
        let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        let mut stim = XorShift(seed);
        for (a, v) in pokes {
            compiled.set("addr", a as u64);
            threaded.set("addr", a as u64);
            oracle.set("addr", a as u64);
            prop_assert_eq!(compiled.get("ra"), oracle.get("ra"));
            prop_assert_eq!(threaded.get("ra"), oracle.get("ra"));
            compiled.poke_mem(mem, a, v & 0xFFFF);
            threaded.poke_mem(mem, a, v & 0xFFFF);
            oracle.poke_mem(mem, a, v & 0xFFFF);
            prop_assert_eq!(compiled.get("ra"), oracle.get("ra"), "held addr {}", a);
            prop_assert_eq!(threaded.get("ra"), oracle.get("ra"), "held addr {}", a);
            // Then a fresh address, as a normal read would set it.
            let probe = stim.next() % MEM_WORDS as u64;
            compiled.set("addr", probe);
            threaded.set("addr", probe);
            oracle.set("addr", probe);
            prop_assert_eq!(compiled.get("ra"), oracle.get("ra"));
            prop_assert_eq!(threaded.get("ra"), oracle.get("ra"));
            compiled.step();
            threaded.step();
            oracle.step();
            prop_assert_eq!(compiled.get("rs"), oracle.get("rs"));
            prop_assert_eq!(threaded.get("rs"), oracle.get("rs"));
        }
        prop_assert_eq!(compiled.dump_mem(mem), oracle.dump_mem(mem));
        prop_assert_eq!(threaded.dump_mem(mem), oracle.dump_mem(mem));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The adaptive evaluator's wide-level branches — the cascade into a
    /// straight-line sweep (a fully queued level of at least
    /// `CASCADE_MIN_SPAN` ops) and the dense sweep with change marking (a
    /// half-queued level of at least `DENSE_MIN_SPAN` ops) — fire on served
    /// TRT events, but the random netlists above never build levels that
    /// wide. The wide design reaches both every few cycles: each cycle
    /// changes a random subset of its inputs, queueing half or all of a
    /// 160-op level. The random netlist hung below it puts short mixed-op
    /// segments on the wide levels, so a cascade entering mid-stream must
    /// also run the packed tail blocks pending at its entry level. Every
    /// engine tuning must match the interpreter.
    #[test]
    fn wide_level_sweeps_match_the_oracle(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..40),
        seed in any::<u64>(),
    ) {
        let (design, outputs) = build_wide_design(&recipes);
        let inputs = wide_inputs();
        let mut oracle = Sim::with_mode(&design, ExecMode::Interpreted);
        let mut sims: Vec<Sim> = engine_matrix()
            .iter()
            .map(|&c| Sim::with_config(&design, ExecMode::Compiled, c))
            .collect();
        // The shape the branches need: fusion merges none of the wide
        // ops, so every wide level keeps at least `WIDE_SPAN` ops.
        let stats = sims[0].engine_stats().unwrap();
        prop_assert!(stats.ops_final >= WIDE_SPAN * (WIDE_LEVELS + WIDE_TAIL));

        let mut stim = XorShift(seed);
        for cycle in 0..200u32 {
            // Each input changes with probability 1/4.
            let changed = stim.next() & stim.next();
            for (bit, name) in inputs.iter().enumerate() {
                if changed >> bit & 1 == 1 {
                    let v = stim.next();
                    oracle.set(name, v);
                    for sim in &mut sims {
                        sim.set(name, v);
                    }
                }
            }
            for name in &outputs {
                let want = oracle.get(name);
                for (k, sim) in sims.iter_mut().enumerate() {
                    prop_assert_eq!(
                        sim.get(name), want,
                        "config {} vs oracle: {} cycle {}", k, name, cycle
                    );
                }
            }
            oracle.step();
            for sim in &mut sims {
                sim.step();
            }
        }
    }
}

/// `DispatchMode::Auto` must pick the dispatch tier from the stream size:
/// tiny netlists stay on match dispatch (no compile pass at all), big ones
/// compile closure chains eagerly — and a backdoor poke must tear the
/// compiled program down, run exactly one match-dispatched eval, then
/// recompile.
#[test]
fn auto_dispatch_threshold_and_poke_fallback() {
    // Small design: two memory reads, well under the Auto threshold.
    let mut d = Design::new("tiny");
    let addr = d.input("addr", 5);
    let mem = d.memory("m", MEM_WORDS, 16);
    let ra = d.read_async(mem, addr);
    d.expose_output("ra", ra);

    let mut small = Sim::new(&d);
    for a in 0..8u64 {
        small.set("addr", a);
        let _ = small.get("ra");
        small.step();
    }
    let st = small.engine_stats().unwrap();
    assert_eq!(st.compiles, 0, "tiny stream must not trigger a compile");
    assert_eq!(st.evals_threaded, 0);
    assert!(
        st.evals_match > 0,
        "tiny stream evals must run match dispatch"
    );

    // Big design: deep chain far above the Auto threshold.
    let recipes: Vec<(u8, u16, u16, u8)> = (0..16u16)
        .map(|i| (i as u8 * 17, 1000 + i, 2000 + 3 * i, i as u8))
        .collect();
    let (big, outputs) = build_design_with_chain(&recipes, 600);
    let mut sim = Sim::new(&big);
    let mut stim = XorShift(0x41544C41_u64);
    for _ in 0..8 {
        for i in 0..N_INPUTS {
            sim.set(&format!("in{i}"), stim.next());
        }
        for name in &outputs {
            let _ = sim.get(name);
        }
        sim.step();
    }
    let before = sim.engine_stats().unwrap().clone();
    assert!(before.compiles >= 1, "big stream must compile under Auto");
    assert!(
        before.evals_threaded > 0,
        "big stream evals must run threaded"
    );
    assert!(before.closures_specialized >= before.ops_final);
    assert!(before.blocks_built > 0);

    // Backdoor poke: program dropped, one match eval, then a recompile.
    let big_mem = big.find_memory("m").unwrap();
    sim.poke_mem(big_mem, 0, 0xBEEF);
    for name in &outputs {
        let _ = sim.get(name);
    }
    let after = sim.engine_stats().unwrap().clone();
    assert_eq!(
        after.evals_match,
        before.evals_match + 1,
        "the first post-poke eval must fall back to match dispatch"
    );
    assert!(
        after.compiles > before.compiles,
        "poke must force a recompile"
    );

    // And the eval after the recompile is threaded again.
    sim.set("in0", 7);
    for name in &outputs {
        let _ = sim.get(name);
    }
    let settled = sim.engine_stats().unwrap().clone();
    assert!(settled.evals_threaded > after.evals_threaded);
    assert_eq!(settled.evals_match, after.evals_match);
}
