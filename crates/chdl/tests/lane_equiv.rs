//! Laned-vs-scalar equivalence: a [`LaneGroup`] of `L` lanes driven with
//! per-lane **divergent** stimulus must be bit-exact, on every lane and
//! every cycle, with `L` independent scalar [`Sim`]s of the same design —
//! including FSMs, registers with enables/clears, memories with write
//! ports, per-lane backdoor pokes and the fused batch path.

mod netgen;

use atlantis_chdl::prelude::*;
use atlantis_chdl::sim::ExecMode;
use atlantis_chdl::{DispatchMode, EngineConfig};
use netgen::{build_design, build_design_with_chain, XorShift, MEM_WORDS, N_INPUTS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn laned_matches_scalar_lockstep(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..40),
        seed in any::<u64>(),
        lanes in 1usize..12,
        adaptive in any::<bool>(),
    ) {
        let (design, outputs) = build_design(&recipes);
        let mem = design.find_memory("m").unwrap();

        // The scalars run the opposite sweep policy to the group, so the
        // two sides never share an adaptive-sweep path.
        let scalar_config = EngineConfig { adaptive: !adaptive, ..EngineConfig::default() };
        let mut scalars: Vec<Sim> = (0..lanes)
            .map(|_| Sim::with_config(&design, ExecMode::Compiled, scalar_config))
            .collect();
        // Force the group onto the threaded lane closures (these netlists
        // can sit below the Auto threshold) while the scalars keep the
        // default dispatch: the per-lane pokes below then exercise the
        // lane-program invalidation path against an independent engine.
        let mut group = Sim::with_config(
            &design,
            ExecMode::Compiled,
            EngineConfig {
                adaptive,
                dispatch: DispatchMode::Threaded,
                ..EngineConfig::default()
            },
        )
        .fork_lanes(lanes);
        prop_assert_eq!(group.lanes(), lanes);

        // Stepped phase: fresh divergent inputs per lane per cycle
        // (exercises the shared incremental dirty-queue path), with
        // occasional per-lane backdoor pokes.
        let mut stim = XorShift(seed);
        for cycle in 0..220u32 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for i in 0..N_INPUTS {
                    let v = stim.next();
                    scalar.set(&format!("in{i}"), v);
                    group.set(lane, &format!("in{i}"), v);
                }
            }
            if cycle % 13 == 0 {
                let lane = (stim.next() % lanes as u64) as usize;
                let addr = (stim.next() % MEM_WORDS as u64) as usize;
                let v = stim.next() & 0xFFF;
                scalars[lane].poke_mem(mem, addr, v);
                group.poke_mem(lane, mem, addr, v);
            }
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for name in &outputs {
                    prop_assert_eq!(
                        group.get(lane, name),
                        scalar.get(name),
                        "output {} lane {} cycle {}", name, lane, cycle
                    );
                }
            }
            for scalar in &mut scalars {
                scalar.step();
            }
            group.step();
        }

        // Batch phase: inputs held (still divergent across lanes), fused
        // laned path vs the scalar batch path.
        group.run_batch(100);
        for scalar in &mut scalars {
            scalar.run(100);
        }
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            for name in &outputs {
                prop_assert_eq!(
                    group.get(lane, name),
                    scalar.get(name),
                    "post-batch output {} lane {}", name, lane
                );
            }
            // Per-lane memory banks must agree word for word.
            prop_assert_eq!(group.dump_mem(lane, mem), scalar.dump_mem(mem));
        }
        prop_assert_eq!(group.cycle(), scalars[0].cycle());
    }

    /// The lane engine consumes the same fused stream as the scalar
    /// engine (fork inherits the parent's `EngineConfig`). On deep-chain
    /// netlists, a fused lane group must stay bit-exact with unfused
    /// scalar sims under divergent per-lane stimulus.
    #[test]
    fn fused_lanes_match_unfused_scalars(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..20),
        depth in 48usize..128,
        seed in any::<u64>(),
        lanes in 2usize..8,
    ) {
        let (design, outputs) = build_design_with_chain(&recipes, depth);
        let mem = design.find_memory("m").unwrap();

        // Scalars deliberately run the raw (unfused) stream so the two
        // sides cannot share a lowering bug.
        let mut scalars: Vec<Sim> = (0..lanes)
            .map(|_| Sim::with_config(&design, ExecMode::Compiled, EngineConfig::unfused()))
            .collect();
        let mut group = Sim::new(&design).fork_lanes(lanes);

        let mut stim = XorShift(seed);
        for cycle in 0..120u32 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for i in 0..N_INPUTS {
                    let v = stim.next();
                    scalar.set(&format!("in{i}"), v);
                    group.set(lane, &format!("in{i}"), v);
                }
            }
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for name in &outputs {
                    prop_assert_eq!(
                        group.get(lane, name),
                        scalar.get(name),
                        "output {} lane {} cycle {}", name, lane, cycle
                    );
                }
            }
            for scalar in &mut scalars {
                scalar.step();
            }
            group.step();
        }
        group.run_batch(80);
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            scalar.run(80);
            for name in &outputs {
                prop_assert_eq!(
                    group.get(lane, name),
                    scalar.get(name),
                    "post-batch output {} lane {}", name, lane
                );
            }
            prop_assert_eq!(group.dump_mem(lane, mem), scalar.dump_mem(mem));
        }
    }

    /// Forking mid-run must broadcast the scalar sim's state exactly:
    /// the group then tracks a scalar continuation lane for lane.
    #[test]
    fn mid_run_fork_inherits_state(
        recipes in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 8..24),
        seed in any::<u64>(),
        warmup in 1u64..200,
    ) {
        let (design, outputs) = build_design(&recipes);
        let mem = design.find_memory("m").unwrap();

        let mut scalar = Sim::new(&design);
        let mut stim = XorShift(seed);
        for i in 0..N_INPUTS {
            scalar.set(&format!("in{i}"), stim.next());
        }
        scalar.run(warmup);

        let mut group = scalar.fork_lanes(3);
        prop_assert_eq!(group.cycle(), scalar.cycle());
        group.run_batch(50);
        scalar.run(50);
        for lane in 0..3 {
            for name in &outputs {
                prop_assert_eq!(
                    group.get(lane, name),
                    scalar.get(name),
                    "output {} lane {}", name, lane
                );
            }
            prop_assert_eq!(group.dump_mem(lane, mem), scalar.dump_mem(mem));
        }
    }
}
