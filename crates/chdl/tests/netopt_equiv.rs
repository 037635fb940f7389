//! Equivalence harness for the netlist optimizer (`chdl::nir`).
//!
//! Randomized netlists — the shared `netgen` generator plus deliberately
//! redundant shapes (dead cones, duplicated subexpressions, constant
//! cones, identity chains, `dont_touch` pins) — are co-simulated as
//! elaborated and as [`Design::optimized`] returns them, against the
//! interpreter oracle. Every simulation must be bit-exact on every output
//! every cycle, and
//! final memory contents must agree word for word.
//!
//! The pipeline is additionally checked for the structural
//! guarantees simulation alone cannot see: `dont_touch` nodes survive
//! every pass, top-level I/O ports keep their names, widths and order,
//! and the pipeline is idempotent at its fixed point (a second run
//! applies zero rewrites and re-exports a byte-identical netlist).
//!
//! The unit tests at the end pin [`Design::optimized`] — the one-call
//! pipeline — on hand-built shapes: folding, identities,
//! sharing, dead logic, memories, state, pins, and the binding of outputs
//! and labels through aliases.

mod netgen;

use atlantis_chdl::prelude::*;
use atlantis_chdl::sim::ExecMode;
use atlantis_chdl::{Nir, NirKind, PassManager};
use atlantis_simcore::rng::WorkloadRng;
use netgen::{build_design_with_redundancy, XorShift, N_INPUTS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The raw design and its optimized copy, co-simulated against the
    /// interpreter on the same stimulus: every output every cycle, then
    /// final memory contents.
    #[test]
    fn netopt_config_matrix_equivalence(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..32),
        shapes in 4usize..16,
        seed in any::<u64>(),
    ) {
        let (design, outputs) = build_design_with_redundancy(&recipes, shapes);
        let (optimized, _) = design.optimized();
        let mem = design.find_memory("m").unwrap();
        let opt_mem = optimized.find_memory("m").unwrap();

        let mut oracle = Sim::with_mode(&design, ExecMode::Interpreted);
        let mut raw = Sim::new(&design);
        let mut opt = Sim::new(&optimized);

        // The optimized stream must actually be smaller: the redundancy
        // shapes guarantee fold/share/dead targets exist.
        let (raw_ops, opt_ops) = (
            raw.engine_stats().unwrap().ops_lowered,
            opt.engine_stats().unwrap().ops_lowered,
        );
        prop_assert!(opt_ops < raw_ops,
            "the optimized design must lower fewer micro-ops: {} vs {}", opt_ops, raw_ops);

        let mut stim = XorShift(seed);
        for cycle in 0..200u32 {
            for i in 0..N_INPUTS {
                let v = stim.next();
                let name = format!("in{i}");
                oracle.set(&name, v);
                raw.set(&name, v);
                opt.set(&name, v);
            }
            for name in &outputs {
                let want = oracle.get(name);
                prop_assert_eq!(raw.get(name), want, "raw vs oracle: {} cycle {}", name, cycle);
                prop_assert_eq!(
                    opt.get(name), want, "optimized vs oracle: {} cycle {}", name, cycle
                );
            }
            oracle.step();
            raw.step();
            opt.step();
        }

        // Batch phase: fused dense sweeps over both streams.
        oracle.run(100);
        raw.run_batch(100);
        opt.run_batch(100);
        for name in &outputs {
            let want = oracle.get(name);
            prop_assert_eq!(raw.get(name), want, "post-batch raw: {}", name);
            prop_assert_eq!(opt.get(name), want, "post-batch optimized: {}", name);
        }
        let want_mem = oracle.dump_mem(mem);
        prop_assert_eq!(raw.dump_mem(mem), want_mem.clone());
        prop_assert_eq!(opt.dump_mem(opt_mem), want_mem);
    }

    /// `dont_touch` nodes survive the pipeline with their kind intact —
    /// never folded to constants, never eliminated — and pinned labels
    /// read the same on the raw and the optimized design.
    #[test]
    fn dont_touch_survives_all_passes(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..24),
        shapes in 5usize..20,
        seed in any::<u64>(),
    ) {
        let (design, _) = build_design_with_redundancy(&recipes, shapes);

        let mut nir = Nir::from_design(&design);
        let pinned: Vec<(u32, NirKind)> = (0..nir.len() as u32)
            .filter(|&i| nir.is_dont_touch(i))
            .map(|i| (i, nir.kind(i)))
            .collect();
        prop_assert!(!pinned.is_empty(), "generator must emit pinned shapes");
        PassManager::standard().run(&mut nir);
        for &(i, kind) in &pinned {
            prop_assert!(!nir.is_dead(i), "pinned node {} was eliminated", i);
            prop_assert_eq!(nir.kind(i), kind, "pinned node {} was rewritten", i);
        }
        // Pins follow the compaction into the exported design.
        let exported = nir.to_design();
        let nir2 = Nir::from_design(&exported);
        let surviving = (0..nir2.len() as u32).filter(|&i| nir2.is_dont_touch(i)).count();
        prop_assert_eq!(surviving, pinned.len());

        // The pinned probes must read identically on the raw and the
        // optimized design (they are protected from the passes and from
        // fusion).
        let pins: Vec<String> = (0..shapes)
            .filter(|k| k % 5 == 4)
            .map(|k| format!("pin{k}"))
            .collect();
        let mut raw = Sim::new(&design);
        let mut opt = Sim::new(&exported);
        let mut stim = XorShift(seed);
        for _ in 0..50 {
            for i in 0..N_INPUTS {
                let v = stim.next();
                raw.set(&format!("in{i}"), v);
                opt.set(&format!("in{i}"), v);
            }
            for name in &pins {
                prop_assert_eq!(opt.get(name), raw.get(name), "probe {}", name);
            }
            raw.step();
            opt.step();
        }
    }

    /// Top-level I/O is sacred: the exported design keeps every input and
    /// output port with its name, width and position. And the pipeline is
    /// idempotent: a second run over its own output applies zero rewrites
    /// and re-exports a byte-identical structure.
    #[test]
    fn io_preserved_and_fixed_point_idempotent(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..32),
        shapes in 0usize..12,
    ) {
        let (design, _) = build_design_with_redundancy(&recipes, shapes);

        let mut nir = Nir::from_design(&design);
        PassManager::standard().run(&mut nir);
        let optimized = nir.to_design();
        prop_assert_eq!(optimized.inputs(), design.inputs(), "input ports changed");
        prop_assert_eq!(optimized.output_ports(), design.output_ports(), "output ports changed");

        // Second run: already at the fixed point.
        let mut nir2 = Nir::from_design(&optimized);
        let ledger2 = PassManager::standard().run(&mut nir2);
        prop_assert_eq!(ledger2.consts_folded, 0, "{:?}", &ledger2);
        prop_assert_eq!(ledger2.subexprs_shared, 0, "{:?}", &ledger2);
        prop_assert_eq!(ledger2.dead_gates, 0, "{:?}", &ledger2);
        prop_assert_eq!(ledger2.nodes_before, ledger2.nodes_after);
        let re_exported = nir2.to_design();
        prop_assert_eq!(
            re_exported.structural_bytes(),
            optimized.structural_bytes(),
            "fixed-point re-export must be byte-identical"
        );
    }
}

/// A deliberately dead cone — gates reachable from inputs but feeding no
/// output, label, write port or pin — is eliminated in full, and the
/// exported design carries none of it.
#[test]
fn dead_cone_is_fully_eliminated() {
    let mut d = Design::new("deadwood");
    let x = d.input("x", 16);
    let y = d.input("y", 16);
    // Live logic: one adder.
    let live = d.add(x, y);
    d.expose_output("sum", live);
    // Dead cone: five chained gates, never consumed.
    let d1 = d.mul(x, y);
    let d2 = d.xor(d1, x);
    let d3 = d.sub(d2, y);
    let d4 = d.and(d3, d1);
    let _d5 = d.or(d4, d2);

    let mut nir = Nir::from_design(&d);
    let ledger = PassManager::standard().run(&mut nir);
    assert!(ledger.dead_gates >= 5, "whole cone must die: {ledger:?}");

    // Exactly the two inputs and the one live adder remain.
    let out = nir.to_design();
    let nir_out = Nir::from_design(&out);
    let live_ops = (0..nir_out.len() as u32)
        .filter(|&i| !matches!(nir_out.kind(i), NirKind::Input | NirKind::Const))
        .count();
    assert_eq!(live_ops, 1, "only the live adder survives");

    // The compiled sim of the exported design agrees with the interpreter
    // on the original.
    let mut sim = Sim::new(&out);
    let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
    sim.set("x", 1234);
    sim.set("y", 4321);
    oracle.set("x", 1234);
    oracle.set("y", 4321);
    assert_eq!(sim.get("sum"), oracle.get("sum"));
}

// ---------------------------------------------------------------------
// `Design::optimized()` on hand-built shapes
// ---------------------------------------------------------------------

/// Co-simulate a design and its optimized form on random stimuli.
fn assert_equivalent(d: &Design, cycles: u64, seed: u64) {
    let (opt, _) = d.optimized();
    let mut s1 = Sim::new(d);
    let mut s2 = Sim::new(&opt);
    let inputs = d.inputs();
    let outputs = d.output_ports();
    let mut rng = WorkloadRng::seed_from_u64(seed);
    for cycle in 0..cycles {
        for (name, width) in &inputs {
            let v = rng.below(1u64 << (*width as u64).min(63));
            s1.set(name, v);
            s2.set(name, v);
        }
        for (name, _) in &outputs {
            assert_eq!(s1.get(name), s2.get(name), "output '{name}' cycle {cycle}");
        }
        s1.step();
        s2.step();
    }
}

/// Nodes of `kind` in a design, and how many carry the `dont_touch` mark.
fn count_kind_and_pins(d: &Design, kind: NirKind) -> (usize, usize) {
    let nir = Nir::from_design(d);
    let all = 0..nir.len() as u32;
    let of_kind = all.clone().filter(|&i| nir.kind(i) == kind).count();
    let pinned = all.filter(|&i| nir.is_dont_touch(i)).count();
    (of_kind, pinned)
}

#[test]
fn constant_subtrees_fold() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    let a = d.lit(3, 8);
    let b = d.lit(4, 8);
    let k = d.mul(a, b); // 12, foldable
    let y = d.add(x, k);
    d.expose_output("y", y);
    let (opt, ledger) = d.optimized();
    assert!(ledger.consts_folded >= 1);
    assert!(
        opt.stats().gates < d.stats().gates,
        "the 8-bit multiplier vanished"
    );
    assert_equivalent(&d, 10, 1);
}

#[test]
fn identities_alias_away() {
    let mut d = Design::new("t");
    let x = d.input("x", 16);
    let zero = d.lit(0, 16);
    let one = d.lit(1, 16);
    let a = d.add(x, zero); // x
    let b = d.mul(a, one); // x
    let c = d.or(zero, b); // x
    let ones = d.lit(0xFFFF, 16);
    let e = d.and(c, ones); // x
    d.expose_output("y", e);
    let (opt, _) = d.optimized();
    assert_eq!(opt.stats().gates, 0, "everything reduced to wiring");
    assert_equivalent(&d, 10, 2);
}

#[test]
fn constant_mux_selects_collapse() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    let y = d.input("y", 8);
    let always = d.high();
    let m1 = d.mux(always, x, y); // x
    let never = d.low();
    let m2 = d.mux(never, x, y); // y
    let sel = d.input("s", 1);
    let same = d.mux(sel, m1, m1); // mux of identical arms → m1
    let s = d.add(m1, m2);
    let s2 = d.add(s, same);
    d.expose_output("z", s2);
    let (opt, _) = d.optimized();
    assert!(opt.stats().gates < d.stats().gates);
    assert_equivalent(&d, 10, 3);
}

#[test]
fn dead_logic_is_removed_but_labels_survive() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    let y = d.input("y", 8);
    let used = d.add(x, y);
    let dead = d.mul(x, y); // never consumed
    let _dead2 = d.sub(dead, y);
    let probed = d.xor(x, y);
    d.label("probe", probed);
    d.expose_output("out", used);
    let (opt, ledger) = d.optimized();
    assert!(ledger.nodes_before - ledger.nodes_after >= 2, "{ledger:?}");
    // The probe must still be readable.
    let mut sim = Sim::new(&opt);
    sim.set("x", 5);
    sim.set("y", 3);
    assert_eq!(sim.get("probe"), 6);
    assert_equivalent(&d, 10, 4);
}

#[test]
fn unused_memories_are_dropped() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    d.memory("never_touched", 256, 32);
    let m = d.memory("read_only", 16, 8);
    let addr = d.trunc(x, 4);
    let rd = d.read_async(m, addr);
    d.expose_output("rd", rd);
    let (opt, _) = d.optimized();
    assert!(
        opt.find_memory("never_touched").is_none(),
        "one memory dropped"
    );
    assert!(opt.find_memory("read_only").is_some());
    assert_eq!(opt.stats().ram_bits, 16 * 8);
    assert_equivalent(&d, 10, 5);
}

#[test]
fn registers_and_feedback_survive() {
    let mut d = Design::new("t");
    let en = d.input("en", 1);
    let c = d.counter("c", 8, en, None);
    let one = d.lit(1, 8);
    let useless = d.mul(c.value, one); // alias of the counter
    d.expose_output("v", useless);
    assert_equivalent(&d, 30, 6);
    let (opt, _) = d.optimized();
    assert_eq!(opt.stats().flip_flops, 8);
}

#[test]
fn structurally_identical_subtrees_are_shared() {
    let mut d = Design::new("t");
    let x = d.input("x", 16);
    let y = d.input("y", 16);
    // Two elaborations of the same subtree: (x ^ y) + (x & y), built
    // twice from scratch, then combined. CSE must keep one copy.
    let mut arms = Vec::new();
    for _ in 0..2 {
        let a = d.xor(x, y);
        let b = d.and(x, y);
        arms.push(d.add(a, b));
    }
    let z = d.mul(arms[0], arms[1]); // both arms resolve to one node
    d.expose_output("z", z);
    let (opt, ledger) = d.optimized();
    assert!(
        ledger.subexprs_shared >= 3,
        "xor/and/add pairs must be shared: {ledger:?}"
    );
    assert!(opt.stats().gates < d.stats().gates);
    assert_equivalent(&d, 10, 8);

    // Sharing is transitive: with the inner pair shared, the outer
    // adds become structurally identical too — checked above by the
    // >= 3 bound (2 leaves + 1 outer add).
}

#[test]
fn stateful_nodes_are_never_shared() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    // Two registers with identical inputs must stay distinct: they
    // are stateful (a poke or future enable could diverge them).
    let r1 = d.reg("r1", x);
    let r2 = d.reg("r2", x);
    let z = d.concat(r1, r2);
    d.expose_output("z", z);
    let (opt, ledger) = d.optimized();
    assert_eq!(ledger.subexprs_shared, 0, "{ledger:?}");
    assert_eq!(opt.stats().flip_flops, 16);
    assert_equivalent(&d, 10, 9);
}

#[test]
fn dont_touch_pins_nodes_through_optimization() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    let y = d.input("y", 8);
    let zero = d.lit(0, 8);
    let pinned_id = d.add(x, zero); // would alias to x
    d.set_dont_touch(pinned_id);
    let dup_a = d.xor(x, y);
    let dup_b = d.xor(x, y); // would CSE onto dup_a
    d.set_dont_touch(dup_b);
    let dead = d.mul(x, y); // unconsumed — would be eliminated
    d.set_dont_touch(dead);
    let out = d.add(dup_a, x);
    d.expose_output("out", out);
    let (opt, _) = d.optimized();
    // All three pinned nodes survive as distinct gate nodes, and the
    // marks follow the copies.
    let (binops, pins) = count_kind_and_pins(&opt, NirKind::Binop);
    assert_eq!(pins, 3, "pins must propagate");
    // pinned add, both xors, dead mul, plus the live output add.
    assert_eq!(binops, 5, "pinned gates must not fold/share/die");
    assert_equivalent(&d, 10, 10);
}

#[test]
fn real_designs_shrink_and_stay_equivalent() {
    // The elaborated accumulator family used across the repo.
    let mut d = Design::new("t");
    let x = d.input("x", 16);
    let zero = d.lit(0, 16);
    let mut acc = zero;
    for i in 0..6u64 {
        let k = d.lit(i % 3, 16); // some coefficients are 0 and 1
        let term = d.mul(x, k);
        acc = d.add(acc, term);
    }
    let r = d.reg("r", acc);
    d.expose_output("y", r);
    let before = d.stats().gates;
    let (opt, ledger) = d.optimized();
    assert!(opt.stats().gates < before, "{ledger:?}");
    assert_equivalent(&d, 20, 7);
}

/// An identity chain in front of an output *and* a label binds both to
/// the chain's source: no gate is left standing in front of either.
#[test]
fn identity_chain_before_output_and_label_compacts_to_wiring() {
    let mut d = Design::new("t");
    let x = d.input("x", 16);
    let zero = d.lit(0, 16);
    let one = d.lit(1, 16);
    let ones = d.lit(0xFFFF, 16);
    let a = d.add(x, zero);
    let b = d.mul(a, one);
    let c = d.or(b, zero);
    let e = d.and(c, ones); // ((x + 0) · 1 | 0) & ones == x
    d.expose_output("y", e);
    d.label("tap", e);
    let (opt, _) = d.optimized();
    assert_eq!(opt.stats().gates, 0, "the chain compacts to wiring");
    let mut sim = Sim::new(&opt);
    sim.set("x", 0xBEEF);
    assert_eq!(sim.get("y"), 0xBEEF);
    assert_eq!(sim.get("tap"), 0xBEEF);
    assert_equivalent(&d, 10, 11);
}

/// Two outputs driven by structurally identical cones end up on one
/// shared cone; both output ports remain.
#[test]
fn twin_output_cones_share_one_cone() {
    let build = |twins: usize| {
        let mut d = Design::new("t");
        let x = d.input("x", 16);
        let y = d.input("y", 16);
        for k in 0..twins {
            let a = d.xor(x, y);
            let b = d.and(x, y);
            let s = d.add(a, b);
            d.expose_output(format!("y{k}"), s);
        }
        d
    };
    let (one, _) = build(1).optimized();
    let twins = build(2);
    let (opt, ledger) = twins.optimized();
    assert_eq!(
        opt.stats().gates,
        one.stats().gates,
        "the twin cone folds onto the first: {ledger:?}"
    );
    assert_eq!(count_kind_and_pins(&opt, NirKind::Binop).0, 3);
    assert_eq!(opt.output_ports(), twins.output_ports());
    assert_equivalent(&twins, 10, 12);
}

/// A `dont_touch` node on an output's path keeps its gate even when the
/// output is rebound through the identity in front of it.
#[test]
fn pinned_node_on_the_output_path_survives_rebinding() {
    let mut d = Design::new("t");
    let x = d.input("x", 8);
    let zero = d.lit(0, 8);
    let ones = d.lit(0xFF, 8);
    let pinned = d.add(x, zero); // would alias to x
    d.set_dont_touch(pinned);
    let e = d.and(pinned, ones); // aliases to the pinned add
    d.expose_output("y", e);
    let (opt, _) = d.optimized();
    let (binops, pins) = count_kind_and_pins(&opt, NirKind::Binop);
    assert_eq!((binops, pins), (1, 1), "only the pinned add remains");
    assert_equivalent(&d, 10, 13);
}

/// `optimized()` is at its fixed point: optimizing its result again
/// reproduces it byte for byte, under the source design's name.
#[test]
fn reoptimizing_is_byte_identical() {
    let mut d = Design::new("windowed");
    let x = d.input("x", 16);
    let zero = d.lit(0, 16);
    let mut acc = zero;
    let mut delayed = x;
    for (i, c) in [0u64, 1, 7, 1, 0].into_iter().enumerate() {
        let k = d.lit(c, 16);
        let term = d.mul(delayed, k);
        acc = d.add(acc, term);
        delayed = d.reg(format!("z{i}"), delayed);
    }
    d.expose_output("y", acc);
    d.label("acc", acc);
    let (once, _) = d.optimized();
    let (twice, ledger) = once.optimized();
    assert_eq!(once.name(), d.name(), "the copy keeps the source name");
    assert_eq!(
        ledger.consts_folded + ledger.subexprs_shared + ledger.dead_gates,
        0
    );
    assert_eq!(twice.structural_bytes(), once.structural_bytes());
}
