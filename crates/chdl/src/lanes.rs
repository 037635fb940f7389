//! Lane-batched multi-instance simulation.
//!
//! A [`LaneGroup`] steps `L` **independent instances** of one design
//! through a single compiled micro-op stream. Per-signal storage becomes
//! a node-major structure-of-arrays (`vals[node * L + lane]`), registers
//! and memories get one bank per lane, and every micro-op's inner loop
//! sweeps its contiguous lane row in fixed-size chunks that the compiler
//! auto-vectorizes to SIMD. Dispatch, dirty tracking and consumer
//! marking are shared across lanes, so their cost is amortized `L` ways
//! — the data-parallel serving shape of the ATLANTIS workloads (§3):
//! many independent events through one configured design.
//!
//! Lanes are *instances*, not threads: the group is stepped as a whole
//! ([`LaneGroup::step`] advances every lane by one clock edge), while
//! inputs, memories and outputs are addressed per lane. All buffers are
//! allocated once at fork time ([`Sim::fork_lanes`](crate::Sim::fork_lanes))
//! and reused for the
//! group's lifetime.
//!
//! ```
//! use atlantis_chdl::prelude::*;
//!
//! let mut d = Design::new("acc");
//! let x = d.input("x", 16);
//! let acc = d.reg_feedback("acc", 16, |d, q| d.add(q, x));
//! d.expose_output("out", acc);
//!
//! let sim = Sim::new(&d);
//! let mut group = sim.fork_lanes(4);
//! for lane in 0..4 {
//!     group.set(lane, "x", 1 + lane as u64);
//! }
//! group.run(10);
//! for lane in 0..4 {
//!     assert_eq!(group.get(lane, "out"), 10 * (1 + lane as u64));
//! }
//! ```

use crate::engine::{exec_scalar, for_each_operand, lower_op, CompiledEngine, LaneState};
use crate::error::ChdlError;
use crate::netlist::{MemId, Node};
use crate::signal::{mask, Signal};
use std::collections::HashMap;

/// `L` independent instances of one design, stepped together over
/// structure-of-arrays lane state by the compiled engine's lane-batched
/// execution paths. Created by [`Sim::fork_lanes`](crate::Sim::fork_lanes).
#[derive(Debug, Clone)]
pub struct LaneGroup {
    nodes: Vec<Node>,
    names: HashMap<String, Signal>,
    engine: CompiledEngine,
    state: LaneState,
    cycle: u64,
}

impl LaneGroup {
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        names: HashMap<String, Signal>,
        engine: CompiledEngine,
        state: LaneState,
        cycle: u64,
    ) -> Self {
        LaneGroup {
            nodes,
            names,
            engine,
            state,
            cycle,
        }
    }

    /// Number of instances in the group.
    pub fn lanes(&self) -> usize {
        self.state.lanes
    }

    /// Clock edges applied so far (all lanes share one clock).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn lookup(&self, name: &str) -> Signal {
        *self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("{}", ChdlError::UnknownName(name.to_string())))
    }

    fn check_lane(&self, lane: usize) {
        assert!(
            lane < self.state.lanes,
            "lane {lane} out of range (group has {} lanes)",
            self.state.lanes
        );
    }

    /// Set an input port on one lane. The value is masked to the port
    /// width.
    pub fn set(&mut self, lane: usize, name: &str, value: u64) {
        let sig = self.lookup(name);
        self.set_signal(lane, sig, value);
    }

    /// Set an input port on one lane via its signal handle.
    pub fn set_signal(&mut self, lane: usize, sig: Signal, value: u64) {
        self.check_lane(lane);
        let idx = sig.node as usize;
        assert!(
            matches!(self.nodes[idx], Node::Input { .. }),
            "set() target is not an input port"
        );
        let v = value & mask(sig.width);
        let slot = idx * self.state.lanes + lane;
        if self.state.vals[slot] == v {
            return; // no change — nothing to invalidate
        }
        self.state.vals[slot] = v;
        self.engine.mark_node_dirty(sig.node);
    }

    /// Set an input port to the same value on every lane.
    pub fn set_all(&mut self, name: &str, value: u64) {
        let sig = self.lookup(name);
        for lane in 0..self.state.lanes {
            self.set_signal(lane, sig, value);
        }
    }

    /// Read a named signal on one lane after settling combinational
    /// logic (which settles every lane — evaluation is shared).
    pub fn get(&mut self, lane: usize, name: &str) -> u64 {
        let sig = self.lookup(name);
        self.get_signal(lane, sig)
    }

    /// Read any signal on one lane by handle after settling
    /// combinational logic. An unnamed intermediate the fusion pass
    /// absorbed or elided is recomputed on demand from its materialized
    /// ancestors, exactly like [`Sim::get_signal`](crate::Sim::get_signal).
    pub fn get_signal(&mut self, lane: usize, sig: Signal) -> u64 {
        self.check_lane(lane);
        self.eval();
        if !self.engine.is_computed(sig.node) {
            return self.eval_elided(lane, sig.node);
        }
        self.state.vals[sig.node as usize * self.state.lanes + lane]
    }

    /// Recompute a fused-away node for one lane (iterative post-order
    /// walk with a local memo; see `Sim::eval_elided`).
    fn eval_elided(&self, lane: usize, root: u32) -> u64 {
        let lanes = self.state.lanes;
        let mut memo: HashMap<u32, u64> = HashMap::new();
        let mut stack = vec![(root, false)];
        while let Some((n, ready)) = stack.pop() {
            if memo.contains_key(&n) {
                continue;
            }
            if self.engine.is_computed(n) {
                memo.insert(n, self.state.vals[n as usize * lanes + lane]);
                continue;
            }
            if ready {
                let op = lower_op(&self.nodes, n).expect("uncomputed node is always a lowered op");
                let v = exec_scalar(
                    op.code,
                    op.a,
                    op.b,
                    op.c,
                    op.imm,
                    &mut |nd| memo[&nd],
                    &mut |m, a| {
                        let words = self.state.mem_words[m as usize];
                        let bank = &self.state.mems[m as usize];
                        let a = a as usize;
                        if a < words {
                            bank[lane * words + a]
                        } else {
                            0
                        }
                    },
                );
                memo.insert(n, v);
            } else {
                stack.push((n, true));
                for_each_operand(&self.nodes[n as usize], |dep| stack.push((dep, false)));
            }
        }
        memo[&root]
    }

    /// Settle combinational logic for all lanes. Idempotent; called
    /// automatically by [`LaneGroup::get`] and [`LaneGroup::step`].
    pub fn eval(&mut self) {
        self.engine.eval_lanes(&mut self.state);
    }

    /// Apply one clock edge to every lane.
    pub fn step(&mut self) {
        self.engine.step_lanes(&mut self.state);
        self.cycle += 1;
    }

    /// Apply `n` clock edges to every lane with inputs held steady.
    pub fn run(&mut self, n: u64) {
        self.run_batch(n);
    }

    /// Batch fast path: `n` fused laned cycles with zero per-edge heap
    /// allocation. Cycle-identical to `n` [`LaneGroup::step`] calls.
    pub fn run_batch(&mut self, n: u64) {
        self.engine.run_batch_lanes(n, &mut self.state);
        self.cycle += n;
    }

    /// Host-side backdoor read of one lane's memory word. Out-of-range
    /// reads return 0, consistent with in-fabric semantics.
    pub fn peek_mem(&self, lane: usize, mem: MemId, addr: usize) -> u64 {
        self.check_lane(lane);
        let m = mem.0 as usize;
        let Some(&words) = self.state.mem_words.get(m) else {
            return 0;
        };
        if addr < words {
            self.state.mems[m][lane * words + addr]
        } else {
            0
        }
    }

    /// Host-side backdoor write of one lane's memory word. Out-of-range
    /// writes are ignored, consistent with in-fabric semantics.
    pub fn poke_mem(&mut self, lane: usize, mem: MemId, addr: usize, value: u64) {
        self.check_lane(lane);
        let m = mem.0 as usize;
        let Some(&words) = self.state.mem_words.get(m) else {
            return;
        };
        if addr >= words {
            return;
        }
        let slot = &mut self.state.mems[m][lane * words + addr];
        if *slot != value {
            *slot = value;
            // No compiled program to drop on the lane path: re-evaluating
            // the memory's read cone is the whole invalidation.
            self.engine.mark_mem_dirty(mem.0);
        }
    }

    /// Load one lane's memory bank from a slice starting at address 0.
    /// Shorter slices leave the tail untouched; excess words are ignored.
    pub fn load_mem(&mut self, lane: usize, mem: MemId, contents: &[u64]) {
        self.check_lane(lane);
        let m = mem.0 as usize;
        let Some(&words) = self.state.mem_words.get(m) else {
            return;
        };
        let n = contents.len().min(words);
        let base = lane * words;
        self.state.mems[m][base..base + n].copy_from_slice(&contents[..n]);
        self.engine.mark_mem_dirty(mem.0);
    }

    /// Snapshot one lane's memory bank (for read-back comparisons).
    pub fn dump_mem(&self, lane: usize, mem: MemId) -> Vec<u64> {
        self.check_lane(lane);
        let m = mem.0 as usize;
        let words = self.state.mem_words[m];
        self.state.mems[m][lane * words..(lane + 1) * words].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use crate::netlist::Design;
    use crate::sim::Sim;

    #[test]
    fn lanes_evolve_independently() {
        let mut d = Design::new("t");
        let x = d.input("x", 16);
        let acc = d.reg_feedback("acc", 16, |d, q| d.add(q, x));
        d.expose_output("out", acc);
        let sim = Sim::new(&d);
        let mut g = sim.fork_lanes(5);
        assert_eq!(g.lanes(), 5);
        for lane in 0..5 {
            g.set(lane, "x", lane as u64 + 1);
        }
        g.run(7);
        for lane in 0..5 {
            assert_eq!(g.get(lane, "out"), 7 * (lane as u64 + 1), "lane {lane}");
        }
        assert_eq!(g.cycle(), 7);
    }

    #[test]
    fn fork_inherits_current_state() {
        let mut d = Design::new("t");
        let x = d.input("x", 8);
        let q = d.reg("q", x);
        d.expose_output("q", q);
        let mem = d.memory("m", 8, 8);
        let addr = d.input("addr", 3);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let mut sim = Sim::new(&d);
        sim.set("x", 42);
        sim.step();
        sim.poke_mem(mem, 3, 99);
        let mut g = sim.fork_lanes(3);
        for lane in 0..3 {
            assert_eq!(g.get(lane, "q"), 42, "register state inherited");
            g.set(lane, "addr", 3);
            assert_eq!(g.get(lane, "ra"), 99, "memory contents inherited");
        }
    }

    #[test]
    fn per_lane_memory_banks_are_disjoint() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 3);
        let data = d.input("data", 8);
        let we = d.input("we", 1);
        let mem = d.memory("m", 8, 8);
        d.write_port(mem, addr, data, we);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let sim = Sim::new(&d);
        let mut g = sim.fork_lanes(4);
        g.set_all("addr", 2);
        g.set_all("we", 1);
        for lane in 0..4 {
            g.set(lane, "data", 10 + lane as u64);
        }
        g.step();
        g.set_all("we", 0);
        for lane in 0..4 {
            assert_eq!(g.get(lane, "ra"), 10 + lane as u64, "lane {lane}");
            assert_eq!(g.peek_mem(lane, mem, 2), 10 + lane as u64);
            assert_eq!(g.peek_mem(lane, mem, 5), 0);
        }
        // Backdoor writes stay lane-local too.
        g.poke_mem(1, mem, 5, 77);
        assert_eq!(g.peek_mem(1, mem, 5), 77);
        assert_eq!(g.peek_mem(0, mem, 5), 0);
        assert_eq!(g.dump_mem(1, mem)[5], 77);
        g.load_mem(2, mem, &[7; 8]);
        assert_eq!(g.dump_mem(2, mem), vec![7; 8]);
        assert_eq!(g.peek_mem(3, mem, 0), 0);
    }

    #[test]
    fn out_of_range_backdoor_is_quiet() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let mem = d.memory("m", 4, 8);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let sim = Sim::new(&d);
        let mut g = sim.fork_lanes(2);
        assert_eq!(g.peek_mem(0, mem, 100), 0);
        g.poke_mem(0, mem, 100, 7); // must not panic
        g.load_mem(0, mem, &[1, 2, 3, 4, 5, 6]); // excess words ignored
        assert_eq!(g.dump_mem(0, mem), vec![1, 2, 3, 4]);
        assert_eq!(g.dump_mem(1, mem), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "lane 3 out of range")]
    fn lane_bounds_are_checked() {
        let mut d = Design::new("t");
        let a = d.input("a", 4);
        d.label("probe", a);
        let sim = Sim::new(&d);
        let mut g = sim.fork_lanes(3);
        g.set(3, "a", 1);
    }
}
