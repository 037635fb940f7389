//! The two-phase cycle simulator.
//!
//! CHDL's distinguishing feature (paper §2.5) is that *the application
//! simulates the design*: the host program sets inputs, advances the clock
//! and reads outputs, with no separate test bench. [`Sim`] implements that
//! contract deterministically:
//!
//! 1. **Evaluate** — combinational nodes are computed in topological order
//!    from the current inputs and register/memory state.
//! 2. **Commit** — [`Sim::step`] latches every register and synchronous
//!    read port, applies memory write ports (read-old-data semantics) and
//!    advances the cycle counter.
//!
//! Two execution engines implement those semantics:
//!
//! * [`ExecMode::Compiled`] (the default) lowers the netlist into the flat
//!   micro-op stream of the `engine` module, with incremental re-evaluation
//!   and an allocation-free batch path ([`Sim::run_batch`]).
//!   Construction runs no netlist-level pass: the stream is lowered from
//!   the design exactly as elaborated, so signal handles index it
//!   directly. To simulate a smaller netlist, build the `Sim` from
//!   [`Design::optimized`].
//! * [`ExecMode::Interpreted`] walks the `Node` tree exactly as elaborated.
//!   It is retained as the reference oracle; `tests/engine_equiv.rs`
//!   co-simulates both on randomized netlists.
//!
//! Combinational loops are detected at construction and reported as
//! [`ChdlError::CombinationalLoop`].

use crate::engine::{
    exec_scalar, for_each_operand, lower_op, CompiledEngine, EngineConfig, EngineStats,
};
use crate::error::ChdlError;
use crate::netlist::{Design, MemId, Node, WritePortDecl, UNDRIVEN};
use crate::signal::{mask, Signal};
use std::collections::HashMap;

/// Which execution engine a [`Sim`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Lowered micro-op stream with incremental re-evaluation (default).
    #[default]
    Compiled,
    /// Reference tree-walking interpreter (the equivalence oracle).
    Interpreted,
}

/// A running instance of a [`Design`].
#[derive(Debug, Clone)]
pub struct Sim {
    nodes: Vec<Node>,
    write_ports: Vec<WritePortDecl>,
    /// Combinational evaluation order (node indices).
    order: Vec<u32>,
    /// Registers and synchronous read ports, latched at each step.
    state_nodes: Vec<u32>,
    vals: Vec<u64>,
    mems: Vec<Vec<u64>>,
    names: HashMap<String, Signal>,
    /// Interpreter-mode "combinational values stale" flag.
    dirty: bool,
    cycle: u64,
    mode: ExecMode,
    engine: Option<CompiledEngine>,
    /// Interpreter-mode persistent next-state buffer (one slot per state
    /// node) so `step()` performs no per-edge heap allocation.
    state_scratch: Vec<u64>,
}

impl Sim {
    /// Elaborate and instantiate a design on the compiled engine. Panics on
    /// elaboration errors; use [`Sim::try_new`] to handle them.
    pub fn new(design: &Design) -> Self {
        Self::try_new(design).unwrap_or_else(|e| panic!("elaboration of '{}': {e}", design.name()))
    }

    /// Elaborate and instantiate a design on the compiled engine.
    pub fn try_new(design: &Design) -> Result<Self, ChdlError> {
        Self::try_with_mode(design, ExecMode::Compiled)
    }

    /// Elaborate and instantiate with an explicit execution engine. Panics
    /// on elaboration errors; use [`Sim::try_with_mode`] to handle them.
    pub fn with_mode(design: &Design, mode: ExecMode) -> Self {
        Self::try_with_mode(design, mode)
            .unwrap_or_else(|e| panic!("elaboration of '{}': {e}", design.name()))
    }

    /// Elaborate and instantiate with an explicit execution engine, using
    /// the default [`EngineConfig`].
    pub fn try_with_mode(design: &Design, mode: ExecMode) -> Result<Self, ChdlError> {
        Self::try_with_config(design, mode, EngineConfig::default())
    }

    /// Elaborate and instantiate with explicit engine tuning. Panics on
    /// elaboration errors; use [`Sim::try_with_config`] to handle them.
    pub fn with_config(design: &Design, mode: ExecMode, config: EngineConfig) -> Self {
        Self::try_with_config(design, mode, config)
            .unwrap_or_else(|e| panic!("elaboration of '{}': {e}", design.name()))
    }

    /// Elaborate and instantiate with an explicit execution engine and
    /// explicit engine tuning (fusion, adaptive sweeps, dispatch).
    pub fn try_with_config(
        design: &Design,
        mode: ExecMode,
        config: EngineConfig,
    ) -> Result<Self, ChdlError> {
        // Every register must have been driven.
        for node in &design.nodes {
            if let Node::Reg { name, d, .. } = node {
                if *d == UNDRIVEN {
                    return Err(ChdlError::UndrivenRegister { name: name.clone() });
                }
            }
        }

        // Both engines run the netlist exactly as elaborated.
        let nodes = design.nodes.clone();
        let write_ports = design.write_ports.clone();
        let n = nodes.len();
        let is_state =
            |node: &Node| matches!(node, Node::Reg { .. } | Node::ReadPort { sync: true, .. });

        // Kahn topological sort of the combinational subgraph.
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (idx, node) in nodes.iter().enumerate() {
            if is_state(node) {
                continue;
            }
            for_each_operand(node, |dep| {
                if !is_state(&nodes[dep as usize]) {
                    indegree[idx] += 1;
                    dependents[dep as usize].push(idx as u32);
                }
            });
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| !is_state(&nodes[i as usize]) && indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let idx = queue[head];
            head += 1;
            order.push(idx);
            for &dep in &dependents[idx as usize] {
                indegree[dep as usize] -= 1;
                if indegree[dep as usize] == 0 {
                    queue.push(dep);
                }
            }
        }
        let comb_count = nodes.iter().filter(|node| !is_state(node)).count();
        if order.len() != comb_count {
            let stuck: Vec<String> = (0..n)
                .filter(|&i| !is_state(&nodes[i]) && indegree[i] > 0)
                .take(8)
                .map(|i| describe_node(&nodes[i], i))
                .collect();
            return Err(ChdlError::CombinationalLoop { nodes: stuck });
        }

        let state_nodes: Vec<u32> = (0..n as u32)
            .filter(|&i| is_state(&nodes[i as usize]))
            .collect();

        let mut vals = vec![0u64; n];
        let mems: Vec<Vec<u64>> = design.mems.iter().map(|m| m.init.clone()).collect();
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Reg { init, .. } => vals[i] = *init,
                // The compiled engine treats constants as pre-seeded value
                // slots rather than ops; seeding here serves both engines.
                Node::Const { value, .. } => vals[i] = *value,
                _ => {}
            }
        }

        // Externally referenced nodes: everything with a name (outputs are
        // always named too) plus `dont_touch` marks. The fusion pass must
        // keep these observable — it may neither absorb nor elide them.
        let mut protected = vec![false; n];
        for sig in design.names.values() {
            protected[sig.node as usize] = true;
        }
        for &i in &design.dont_touch {
            protected[i as usize] = true;
        }

        let engine = match mode {
            ExecMode::Compiled => Some(CompiledEngine::compile(
                &nodes,
                &order,
                &state_nodes,
                &write_ports,
                mems.len(),
                &protected,
                config,
            )),
            ExecMode::Interpreted => None,
        };
        // Ops the peephole folded away are pre-seeded like elaborated
        // constants; their producing ops no longer exist in the stream.
        if let Some(e) = &engine {
            for &(node, v) in e.folded_consts() {
                vals[node as usize] = v;
            }
        }
        let state_scratch = vec![0u64; state_nodes.len()];

        Ok(Sim {
            nodes,
            write_ports,
            order,
            state_nodes,
            vals,
            mems,
            names: design.names.clone(),
            dirty: true,
            cycle: 0,
            mode,
            engine,
            state_scratch,
        })
    }

    /// The number of clock edges applied so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The execution engine this instance runs on.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    fn lookup(&self, name: &str) -> Signal {
        *self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("{}", ChdlError::UnknownName(name.to_string())))
    }

    /// Set an input port by name. The value is masked to the port width.
    pub fn set(&mut self, name: &str, value: u64) {
        let sig = self.lookup(name);
        self.set_signal(sig, value);
    }

    /// Set an input port via its signal handle.
    pub fn set_signal(&mut self, sig: Signal, value: u64) {
        let idx = sig.node as usize;
        assert!(
            matches!(self.nodes[idx], Node::Input { .. }),
            "set() target is not an input port"
        );
        let v = value & mask(sig.width);
        if self.vals[idx] == v {
            return; // no change — nothing to invalidate
        }
        self.vals[idx] = v;
        match &mut self.engine {
            Some(engine) => engine.mark_node_dirty(sig.node),
            None => self.dirty = true,
        }
    }

    /// Read a named signal (input, output or label) after settling
    /// combinational logic.
    pub fn get(&mut self, name: &str) -> u64 {
        let sig = self.lookup(name);
        self.get_signal(sig)
    }

    /// Read any signal by handle after settling combinational logic.
    ///
    /// Named signals are always materialized. An unnamed intermediate the
    /// fusion pass absorbed or elided is recomputed on demand from its
    /// nearest materialized ancestors — observability is preserved, the
    /// hot loop just doesn't pay for it.
    pub fn get_signal(&mut self, sig: Signal) -> u64 {
        self.eval();
        if let Some(e) = &self.engine {
            if !e.is_computed(sig.node) {
                return self.eval_elided(sig.node);
            }
        }
        self.vals[sig.node as usize]
    }

    /// Recompute a fused-away node from materialized values. Iterative
    /// post-order walk with a local memo, so arbitrarily deep elided
    /// chains cannot overflow the stack; the walk bottoms out wherever
    /// `CompiledEngine::is_computed` holds (sources, state, live op dsts,
    /// folded constants).
    fn eval_elided(&self, root: u32) -> u64 {
        let engine = self.engine.as_ref().expect("compiled mode");
        let mut memo: HashMap<u32, u64> = HashMap::new();
        let mut stack = vec![(root, false)];
        while let Some((n, ready)) = stack.pop() {
            if memo.contains_key(&n) {
                continue;
            }
            if engine.is_computed(n) {
                memo.insert(n, self.vals[n as usize]);
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
                    &mut |m, a| self.mems[m as usize].get(a as usize).copied().unwrap_or(0),
                );
                memo.insert(n, v);
            } else {
                stack.push((n, true));
                for_each_operand(&self.nodes[n as usize], |dep| stack.push((dep, false)));
            }
        }
        memo[&root]
    }

    /// Settle combinational logic for the current inputs and state.
    /// Idempotent; called automatically by [`Sim::get`] and [`Sim::step`].
    pub fn eval(&mut self) {
        match &mut self.engine {
            Some(engine) => engine.eval(&mut self.vals, &self.mems),
            None => {
                if !self.dirty {
                    return;
                }
                for i in 0..self.order.len() {
                    let idx = self.order[i] as usize;
                    self.vals[idx] = self.eval_node(idx);
                }
                self.dirty = false;
            }
        }
    }

    /// Interpreter-mode single-node evaluation. Lowers the node through
    /// the engine's [`lower_op`]/[`exec_scalar`] pair, so interpreter and
    /// compiled engine share one source of truth for op semantics — a new
    /// opcode needs exactly one eval implementation.
    fn eval_node(&self, idx: usize) -> u64 {
        match lower_op(&self.nodes, idx as u32) {
            Some(op) => exec_scalar(
                op.code,
                op.a,
                op.b,
                op.c,
                op.imm,
                &mut |n| self.vals[n as usize],
                &mut |m, a| self.mems[m as usize].get(a as usize).copied().unwrap_or(0),
            ),
            // Sources (inputs, constants) and state nodes carry their own
            // current value; constants were seeded at construction.
            None => self.vals[idx],
        }
    }

    /// Apply one clock edge: settle combinational logic, then latch all
    /// registers and synchronous read ports and commit memory writes
    /// (reads in the same cycle observe the pre-write contents).
    pub fn step(&mut self) {
        match &mut self.engine {
            Some(engine) => engine.step(&mut self.vals, &mut self.mems),
            None => self.step_interpreted(),
        }
        self.cycle += 1;
    }

    fn step_interpreted(&mut self) {
        self.eval();
        // Phase 1: sample next state into the persistent scratch buffer
        // while everything still shows the pre-edge values.
        for (k, &idx) in self.state_nodes.iter().enumerate() {
            let node = &self.nodes[idx as usize];
            self.state_scratch[k] = match node {
                Node::Reg {
                    d, en, clr, init, ..
                } => {
                    let cur = self.vals[idx as usize];
                    if clr.is_some_and(|c| self.vals[c as usize] != 0) {
                        *init
                    } else if en.is_some_and(|e| self.vals[e as usize] == 0) {
                        cur
                    } else {
                        self.vals[*d as usize]
                    }
                }
                Node::ReadPort {
                    mem,
                    addr,
                    sync: true,
                    ..
                } => {
                    let a = self.vals[*addr as usize] as usize;
                    self.mems[*mem as usize].get(a).copied().unwrap_or(0)
                }
                _ => unreachable!(),
            };
        }
        // Phase 2: memory writes (after reads sampled old data).
        for wp in &self.write_ports {
            if self.vals[wp.we as usize] != 0 {
                let a = self.vals[wp.addr as usize] as usize;
                let mem = &mut self.mems[wp.mem as usize];
                if a < mem.len() {
                    mem[a] = self.vals[wp.data as usize];
                }
            }
        }
        // Phase 3: commit.
        for (k, &idx) in self.state_nodes.iter().enumerate() {
            self.vals[idx as usize] = self.state_scratch[k];
        }
        self.dirty = true;
    }

    /// Apply `n` clock edges with the inputs held steady.
    ///
    /// Equivalent to calling [`Sim::step`] `n` times; on the compiled
    /// engine this takes the fused batch path ([`Sim::run_batch`]).
    pub fn run(&mut self, n: u64) {
        self.run_batch(n);
    }

    /// Batch fast path: `n` fused eval+commit cycles without per-cycle
    /// dirty bookkeeping and with zero per-edge heap allocation. Produces
    /// cycle-identical results to `n` individual [`Sim::step`] calls.
    pub fn run_batch(&mut self, n: u64) {
        match &mut self.engine {
            Some(engine) => {
                engine.run_batch(n, &mut self.vals, &mut self.mems);
                self.cycle += n;
            }
            None => {
                for _ in 0..n {
                    self.step();
                }
            }
        }
    }

    /// Host-side backdoor read of a memory word (models read-back/test
    /// access, which the paper lists as an FPGA selection criterion).
    /// Consistent with in-fabric semantics: out-of-range reads return 0.
    pub fn peek_mem(&self, mem: MemId, addr: usize) -> u64 {
        self.mems
            .get(mem.0 as usize)
            .and_then(|m| m.get(addr))
            .copied()
            .unwrap_or(0)
    }

    /// Backdoor read that reports out-of-range access instead of masking it.
    pub fn try_peek_mem(&self, mem: MemId, addr: usize) -> Result<u64, ChdlError> {
        let m = self
            .mems
            .get(mem.0 as usize)
            .ok_or(ChdlError::ForeignSignal)?;
        m.get(addr).copied().ok_or(ChdlError::MemOutOfRange {
            addr,
            words: m.len(),
        })
    }

    /// Host-side backdoor write of a memory word (models configuration-time
    /// loading of look-up tables, as the TRT trigger requires). Consistent
    /// with in-fabric semantics: out-of-range writes are ignored.
    pub fn poke_mem(&mut self, mem: MemId, addr: usize, value: u64) {
        let _ = self.try_poke_mem(mem, addr, value);
    }

    /// Backdoor write that reports out-of-range access instead of
    /// discarding the write.
    pub fn try_poke_mem(&mut self, mem: MemId, addr: usize, value: u64) -> Result<(), ChdlError> {
        let m = self
            .mems
            .get_mut(mem.0 as usize)
            .ok_or(ChdlError::ForeignSignal)?;
        let words = m.len();
        match m.get_mut(addr) {
            Some(slot) => {
                if *slot != value {
                    *slot = value;
                    self.invalidate_mem(mem.0);
                }
                Ok(())
            }
            None => Err(ChdlError::MemOutOfRange { addr, words }),
        }
    }

    /// Load a memory from a slice starting at address 0. Shorter slices
    /// leave the tail untouched; words beyond the memory size are ignored
    /// (matching in-fabric write semantics).
    pub fn load_mem(&mut self, mem: MemId, contents: &[u64]) {
        let Some(m) = self.mems.get_mut(mem.0 as usize) else {
            return;
        };
        let n = contents.len().min(m.len());
        m[..n].copy_from_slice(&contents[..n]);
        self.invalidate_mem(mem.0);
    }

    /// Load a memory from a slice, reporting overflow instead of ignoring
    /// the excess words.
    pub fn try_load_mem(&mut self, mem: MemId, contents: &[u64]) -> Result<(), ChdlError> {
        let m = self
            .mems
            .get_mut(mem.0 as usize)
            .ok_or(ChdlError::ForeignSignal)?;
        if contents.len() > m.len() {
            return Err(ChdlError::MemOutOfRange {
                addr: m.len(),
                words: m.len(),
            });
        }
        m[..contents.len()].copy_from_slice(contents);
        self.invalidate_mem(mem.0);
        Ok(())
    }

    /// Snapshot a whole memory (for read-back comparisons).
    pub fn dump_mem(&self, mem: MemId) -> Vec<u64> {
        self.mems[mem.0 as usize].clone()
    }

    fn invalidate_mem(&mut self, mem: u32) {
        match &mut self.engine {
            // Backdoor pokes also drop any compiled threaded program (the
            // next eval runs match dispatch once, then rebuilds); cycle-path
            // memory writes never come through here.
            Some(engine) => engine.poke_invalidate(mem),
            None => self.dirty = true,
        }
    }

    /// Diagnostics: `(micro-ops, logic levels)` of the compiled stream, or
    /// `None` in interpreter mode.
    pub fn compiled_stats(&self) -> Option<(usize, usize)> {
        self.engine
            .as_ref()
            .map(|e| (e.op_count(), e.level_count()))
    }

    /// Full compile-time stream statistics — ops before/after fusion,
    /// peephole counters, the superop and opcode histograms, the dispatch
    /// ledger —
    /// or `None` in interpreter mode. Benches serialize these so fusion
    /// rates are tracked over time.
    pub fn engine_stats(&self) -> Option<&EngineStats> {
        self.engine.as_ref().map(|e| e.stats())
    }

    /// Test-only access to the compiled engine (level-invariant checks).
    #[cfg(test)]
    pub(crate) fn engine(&self) -> Option<&CompiledEngine> {
        self.engine.as_ref()
    }
}

fn describe_node(node: &Node, idx: usize) -> String {
    match node {
        Node::Input { name, .. } => format!("input '{name}'"),
        Node::Const { .. } => format!("const #{idx}"),
        Node::Unop { op, .. } => format!("{op:?} #{idx}"),
        Node::Binop { op, .. } => format!("{op:?} #{idx}"),
        Node::Mux { .. } => format!("mux #{idx}"),
        Node::Slice { .. } => format!("slice #{idx}"),
        Node::Concat { .. } => format!("concat #{idx}"),
        Node::Reg { name, .. } => format!("reg '{name}'"),
        Node::ReadPort { .. } => format!("read port #{idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::BinOp;

    #[test]
    fn adder_adds() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let s = d.add(a, b);
        d.expose_output("s", s);
        let mut sim = Sim::new(&d);
        sim.set("a", 200);
        sim.set("b", 100);
        assert_eq!(sim.get("s"), 300 & 0xFF, "wraps at width");
        sim.set("b", 1);
        assert_eq!(sim.get("s"), 201);
    }

    #[test]
    fn comparisons() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let lt = d.lt(a, b);
        let ge = d.ge(a, b);
        d.expose_output("lt", lt);
        d.expose_output("ge", ge);
        let mut sim = Sim::new(&d);
        sim.set("a", 3);
        sim.set("b", 7);
        assert_eq!(sim.get("lt"), 1);
        assert_eq!(sim.get("ge"), 0);
        sim.set("a", 7);
        assert_eq!(sim.get("lt"), 0);
        assert_eq!(sim.get("ge"), 1);
    }

    #[test]
    fn shifts_saturate_at_width() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let n = d.input("n", 4);
        let l = d.shl(a, n);
        let r = d.shr(a, n);
        d.expose_output("l", l);
        d.expose_output("r", r);
        let mut sim = Sim::new(&d);
        sim.set("a", 0x81);
        sim.set("n", 1);
        assert_eq!(sim.get("l"), 0x02);
        assert_eq!(sim.get("r"), 0x40);
        sim.set("n", 8);
        assert_eq!(sim.get("l"), 0, "shift ≥ width gives 0");
        assert_eq!(sim.get("r"), 0);
    }

    #[test]
    fn reductions() {
        let mut d = Design::new("t");
        let a = d.input("a", 4);
        let all = d.reduce_and(a);
        let any = d.reduce_or(a);
        let par = d.reduce_xor(a);
        d.expose_output("all", all);
        d.expose_output("any", any);
        d.expose_output("par", par);
        let mut sim = Sim::new(&d);
        sim.set("a", 0b1111);
        assert_eq!((sim.get("all"), sim.get("any"), sim.get("par")), (1, 1, 0));
        sim.set("a", 0b0100);
        assert_eq!((sim.get("all"), sim.get("any"), sim.get("par")), (0, 1, 1));
        sim.set("a", 0);
        assert_eq!((sim.get("all"), sim.get("any"), sim.get("par")), (0, 0, 0));
    }

    #[test]
    fn register_latches_on_step_only() {
        let mut d = Design::new("t");
        let x = d.input("x", 8);
        let q = d.reg("q", x);
        d.expose_output("q", q);
        let mut sim = Sim::new(&d);
        sim.set("x", 55);
        assert_eq!(sim.get("q"), 0, "before the edge the register holds init");
        sim.step();
        assert_eq!(sim.get("q"), 55);
        sim.set("x", 77);
        assert_eq!(sim.get("q"), 55, "input change visible only after edge");
        sim.step();
        assert_eq!(sim.get("q"), 77);
    }

    #[test]
    fn register_enable_and_clear() {
        let mut d = Design::new("t");
        let x = d.input("x", 8);
        let en = d.input("en", 1);
        let clr = d.input("clr", 1);
        let q = d.reg_full("q", x, Some(en), Some(clr), 9);
        d.expose_output("q", q);
        let mut sim = Sim::new(&d);
        assert_eq!(sim.get("q"), 9, "init value");
        sim.set("x", 42);
        sim.set("en", 0);
        sim.step();
        assert_eq!(sim.get("q"), 9, "enable low holds");
        sim.set("en", 1);
        sim.step();
        assert_eq!(sim.get("q"), 42);
        sim.set("clr", 1);
        sim.step();
        assert_eq!(sim.get("q"), 9, "clear (to init) wins over enable");
    }

    #[test]
    fn feedback_counter_counts() {
        let mut d = Design::new("t");
        let q = d.reg_feedback("count", 4, |d, q| {
            let one = d.lit(1, 4);
            d.add(q, one)
        });
        d.expose_output("count", q);
        let mut sim = Sim::new(&d);
        sim.run(5);
        assert_eq!(sim.get("count"), 5);
        sim.run(12);
        assert_eq!(sim.get("count"), 17 % 16, "wraps at 4 bits");
    }

    #[test]
    fn undriven_register_is_an_error() {
        let mut d = Design::new("t");
        let slot = d.reg_slot("r", 4, 0);
        let _ = slot; // leaked undriven
        let err = Sim::try_new(&d).unwrap_err();
        assert!(matches!(err, ChdlError::UndrivenRegister { name } if name == "r"));
    }

    #[test]
    fn register_breaks_feedback_loop() {
        let mut d = Design::new("t");
        let a = d.input("a", 1);
        let slot = d.reg_slot("r", 1, 0);
        let x = d.and(slot.q, a);
        d.drive_reg(slot, x);
        // No loop here — registers legally break cycles.
        assert!(Sim::try_new(&d).is_ok());
    }

    #[test]
    fn combinational_loop_detected() {
        // The safe builder API cannot express a combinational cycle (gates
        // only reference already-built nodes), so craft one directly: two
        // AND gates reading each other through forward references.
        let mut d = Design::new("looped");
        let g0 = d.raw_push_node(Node::Binop {
            op: BinOp::And,
            a: 1, // forward reference to g1
            b: 1,
            width: 1,
        });
        let g1 = d.raw_push_node(Node::Binop {
            op: BinOp::Or,
            a: g0,
            b: g0,
            width: 1,
        });
        assert_eq!((g0, g1), (0, 1));
        let err = Sim::try_new(&d).unwrap_err();
        let ChdlError::CombinationalLoop { nodes } = &err else {
            panic!("expected CombinationalLoop, got {err:?}");
        };
        // Both stuck gates are named, with their opcode and node index.
        assert_eq!(nodes.len(), 2, "{nodes:?}");
        assert!(nodes.iter().any(|n| n.contains("And #0")), "{nodes:?}");
        assert!(nodes.iter().any(|n| n.contains("Or #1")), "{nodes:?}");
        // And the rendered error names the participants.
        let msg = err.to_string();
        assert!(msg.contains("combinational loop"), "{msg}");
        assert!(msg.contains("And #0"), "{msg}");
    }

    #[test]
    fn async_vs_sync_read_ports() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let mem = d.rom("m", 8, &[10, 20, 30, 40]);
        let ra = d.read_async(mem, addr);
        let rs = d.read_sync(mem, addr);
        d.expose_output("ra", ra);
        d.expose_output("rs", rs);
        let mut sim = Sim::new(&d);
        sim.set("addr", 2);
        assert_eq!(sim.get("ra"), 30, "async read is combinational");
        assert_eq!(sim.get("rs"), 0, "sync read not yet latched");
        sim.step();
        assert_eq!(sim.get("rs"), 30, "sync read appears one cycle later");
    }

    #[test]
    fn out_of_range_reads_give_zero() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let mem = d.rom("m", 8, &[1, 2]);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let mut sim = Sim::new(&d);
        sim.set("addr", 9);
        assert_eq!(sim.get("ra"), 0);
    }

    #[test]
    fn write_port_read_old_data() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let data = d.input("data", 8);
        let we = d.input("we", 1);
        let mem = d.memory("m", 16, 8);
        d.write_port(mem, addr, data, we);
        let rs = d.read_sync(mem, addr);
        d.expose_output("rs", rs);
        let mut sim = Sim::new(&d);
        sim.set("addr", 5);
        sim.set("data", 99);
        sim.set("we", 1);
        sim.step();
        // The sync read latched the pre-write contents (0).
        assert_eq!(sim.get("rs"), 0);
        sim.set("we", 0);
        sim.step();
        assert_eq!(sim.get("rs"), 99, "write visible on the following read");
    }

    #[test]
    fn last_write_port_wins() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let d1 = d.input("d1", 8);
        let d2 = d.input("d2", 8);
        let we = d.input("we", 1);
        let mem = d.memory("m", 16, 8);
        d.write_port(mem, addr, d1, we);
        d.write_port(mem, addr, d2, we);
        let mut sim = Sim::new(&d);
        sim.set("addr", 3);
        sim.set("d1", 11);
        sim.set("d2", 22);
        sim.set("we", 1);
        sim.step();
        assert_eq!(sim.peek_mem(mem, 3), 22);
    }

    #[test]
    fn out_of_range_writes_ignored() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 8);
        let data = d.input("data", 8);
        let we = d.input("we", 1);
        let mem = d.memory("m", 4, 8);
        d.write_port(mem, addr, data, we);
        let mut sim = Sim::new(&d);
        sim.set("addr", 200);
        sim.set("data", 1);
        sim.set("we", 1);
        sim.step(); // must not panic
        assert_eq!(sim.dump_mem(mem), vec![0, 0, 0, 0]);
    }

    #[test]
    fn backdoor_mem_access() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let mem = d.memory("m", 16, 8);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let mut sim = Sim::new(&d);
        sim.poke_mem(mem, 7, 123);
        sim.set("addr", 7);
        assert_eq!(sim.get("ra"), 123);
        sim.load_mem(mem, &[5; 16]);
        assert_eq!(sim.get("ra"), 5);
        assert_eq!(sim.peek_mem(mem, 0), 5);
    }

    #[test]
    fn backdoor_out_of_range_is_quiet_and_reported() {
        let mut d = Design::new("t");
        let addr = d.input("addr", 4);
        let mem = d.memory("m", 4, 8);
        let ra = d.read_async(mem, addr);
        d.expose_output("ra", ra);
        let mut sim = Sim::new(&d);
        // Quiet variants: reads give 0, writes are dropped — like fabric.
        assert_eq!(sim.peek_mem(mem, 100), 0);
        sim.poke_mem(mem, 100, 7); // must not panic
        assert_eq!(sim.dump_mem(mem), vec![0, 0, 0, 0]);
        sim.load_mem(mem, &[1, 2, 3, 4, 5, 6]); // excess words ignored
        assert_eq!(sim.dump_mem(mem), vec![1, 2, 3, 4]);
        // try_* variants surface the error.
        assert!(matches!(
            sim.try_peek_mem(mem, 100),
            Err(ChdlError::MemOutOfRange {
                addr: 100,
                words: 4
            })
        ));
        assert!(matches!(
            sim.try_poke_mem(mem, 4, 9),
            Err(ChdlError::MemOutOfRange { addr: 4, words: 4 })
        ));
        assert!(sim.try_poke_mem(mem, 3, 9).is_ok());
        assert_eq!(sim.try_peek_mem(mem, 3), Ok(9));
        assert!(sim.try_load_mem(mem, &[0; 5]).is_err());
        assert!(sim.try_load_mem(mem, &[7; 4]).is_ok());
        sim.set("addr", 2);
        assert_eq!(sim.get("ra"), 7, "async read sees try_load_mem contents");
    }

    #[test]
    fn mux_and_slice_and_concat() {
        let mut d = Design::new("t");
        let sel = d.input("sel", 1);
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let m = d.mux(sel, a, b);
        let hi = d.slice(m, 4, 4);
        let lo = d.slice(m, 0, 4);
        let swapped = d.concat(lo, hi);
        d.expose_output("m", m);
        d.expose_output("swapped", swapped);
        let mut sim = Sim::new(&d);
        sim.set("a", 0xAB);
        sim.set("b", 0xCD);
        sim.set("sel", 1);
        assert_eq!(sim.get("m"), 0xAB);
        assert_eq!(sim.get("swapped"), 0xBA);
        sim.set("sel", 0);
        assert_eq!(sim.get("m"), 0xCD);
        assert_eq!(sim.get("swapped"), 0xDC);
    }

    #[test]
    fn set_masks_to_width() {
        let mut d = Design::new("t");
        let a = d.input("a", 4);
        d.label("probe", a);
        let mut sim = Sim::new(&d);
        sim.set("a", 0xFF);
        assert_eq!(sim.get("probe"), 0xF);
    }

    #[test]
    #[should_panic(expected = "no signal named")]
    fn unknown_name_panics() {
        let d = Design::new("t");
        let mut sim = Sim::new(&d);
        sim.get("nope");
    }

    #[test]
    fn cycle_counts() {
        let d = Design::new("t");
        let mut sim = Sim::new(&d);
        assert_eq!(sim.cycle(), 0);
        sim.run(10);
        assert_eq!(sim.cycle(), 10);
    }

    /// A small but representative design exercising every node kind.
    fn kitchen_sink() -> Design {
        let mut d = Design::new("sink");
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let sel = d.input("sel", 1);
        let sum = d.add(a, b);
        let diff = d.sub(a, b);
        let m = d.mux(sel, sum, diff);
        let inv = d.not(m);
        let red = d.reduce_xor(inv);
        let hi = d.slice(m, 4, 4);
        let lo = d.slice(m, 0, 4);
        let cat = d.concat(lo, hi);
        d.expose_output("m", m);
        d.expose_output("red", red);
        d.expose_output("cat", cat);
        let q = d.reg("q", cat);
        d.expose_output("q", q);
        let mem = d.memory("scratch", 16, 8);
        let addr = d.slice(m, 0, 4);
        let we = d.input("we", 1);
        d.write_port(mem, addr, cat, we);
        let ra = d.read_async(mem, addr);
        let rs = d.read_sync(mem, addr);
        d.expose_output("ra", ra);
        d.expose_output("rs", rs);
        d
    }

    #[test]
    fn compiled_matches_interpreter_cycle_by_cycle() {
        let d = kitchen_sink();
        let mut fast = Sim::new(&d);
        let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        assert_eq!(fast.mode(), ExecMode::Compiled);
        assert_eq!(oracle.mode(), ExecMode::Interpreted);
        let outs = ["m", "red", "cat", "q", "ra", "rs"];
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for cyc in 0..500 {
            // Cheap xorshift stimulus, identical for both sims.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for sim in [&mut fast, &mut oracle] {
                sim.set("a", x & 0xFF);
                sim.set("b", (x >> 8) & 0xFF);
                sim.set("sel", (x >> 16) & 1);
                sim.set("we", (x >> 17) & 1);
            }
            for o in outs {
                assert_eq!(fast.get(o), oracle.get(o), "output {o} at cycle {cyc}");
            }
            fast.step();
            oracle.step();
        }
        let mem = d.find_memory("scratch").unwrap();
        assert_eq!(fast.dump_mem(mem), oracle.dump_mem(mem));
    }

    #[test]
    fn run_batch_is_cycle_identical_to_stepping() {
        let d = kitchen_sink();
        let mut batched = Sim::new(&d);
        let mut stepped = Sim::new(&d);
        for sim in [&mut batched, &mut stepped] {
            sim.set("a", 3);
            sim.set("b", 200);
            sim.set("sel", 1);
            sim.set("we", 1);
        }
        batched.run_batch(257);
        for _ in 0..257 {
            stepped.step();
        }
        for o in ["m", "red", "cat", "q", "ra", "rs"] {
            assert_eq!(batched.get(o), stepped.get(o), "output {o}");
        }
        assert_eq!(batched.cycle(), stepped.cycle());
        let mem = d.find_memory("scratch").unwrap();
        assert_eq!(batched.dump_mem(mem), stepped.dump_mem(mem));
    }

    #[test]
    fn incremental_eval_tracks_partial_input_changes() {
        // Toggle one input at a time — the incremental path's common case —
        // and interleave gets, steps and pokes to stress the dirty logic.
        let d = kitchen_sink();
        let mut fast = Sim::new(&d);
        let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        let mem = d.find_memory("scratch").unwrap();
        for round in 0..200u64 {
            let (name, val) = match round % 4 {
                0 => ("a", round & 0xFF),
                1 => ("b", (round * 7) & 0xFF),
                2 => ("sel", round & 1),
                _ => ("we", (round >> 1) & 1),
            };
            fast.set(name, val);
            oracle.set(name, val);
            if round % 7 == 0 {
                fast.poke_mem(mem, (round % 16) as usize, round);
                oracle.poke_mem(mem, (round % 16) as usize, round);
            }
            assert_eq!(fast.get("ra"), oracle.get("ra"), "round {round}");
            assert_eq!(fast.get("cat"), oracle.get("cat"), "round {round}");
            if round % 3 == 0 {
                fast.step();
                oracle.step();
            }
            assert_eq!(fast.get("q"), oracle.get("q"), "round {round}");
        }
    }

    #[test]
    fn compiled_stats_report_stream_shape() {
        let d = kitchen_sink();
        let sim = Sim::new(&d);
        let (ops, levels) = sim.compiled_stats().unwrap();
        assert!(ops > 5, "kitchen sink lowers to several ops, got {ops}");
        assert!(levels >= 2, "kitchen sink has logic depth, got {levels}");
        let oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        assert_eq!(oracle.compiled_stats(), None);
        assert!(oracle.engine_stats().is_none());
    }

    /// A design with plenty of fusable shapes: NAND/NOR chains, a 3-input
    /// AND tree, compare-and-select, slice+concat repacking, a complete
    /// 8-way select tree, and constant subexpressions for the peephole.
    fn fusion_playground() -> Design {
        let mut d = Design::new("fusion_playground");
        let a = d.input("a", 16);
        let b = d.input("b", 16);
        let c = d.input("c", 16);
        let ab = d.and(a, b);
        let nand = d.not(ab);
        let ac = d.or(a, c);
        let nor = d.not(ac);
        let ab2 = d.and(a, b);
        let tree = d.and(ab2, c);
        let k = d.lit(7, 16);
        let masked = d.and(a, k); // -> AND_IMM
        let kk = d.add(k, k); // all-const -> folded
        let sel = d.eq(b, k); // -> EQ_IMM, then MUX_EQI
        let picked = d.mux(sel, nand, nor);
        let hi = d.slice(a, 8, 8);
        let lo = d.slice(b, 0, 8);
        let packed = d.concat(hi, lo); // -> REPACK
        let sbit = d.bit(c, 3);
        let stepped = d.mux(sbit, a, b); // -> MUX_BIT
        let cb = d.bit(c, 5);
        let bb = d.bit(b, 1);
        let gated = d.and(cb, bb); // -> ANDSHR
        let three = d.cat(&[a, b, c]); // CONCAT of CONCAT -> CAT3
        let one = d.lit(3, 16);
        let inc = d.add(tree, one);
        let counted = d.mux(gated, inc, tree); // -> INC_IF
        let sel3 = d.slice(c, 4, 3);
        let leaves = [a, b, nand, nor, ab2, masked, packed, tree];
        let table = d.select(sel3, &leaves); // complete mux tree -> SELECT
        let s1 = d.add(picked, tree);
        let s2 = d.add(masked, packed);
        let s3 = d.add(s1, s2);
        let s4 = d.add(s3, kk);
        let s5 = d.add(s4, stepped);
        let three16 = d.slice(three, 0, 16);
        let s6 = d.add(s5, three16);
        let s7 = d.add(s6, table);
        let out = d.add(s7, counted);
        d.expose_output("out", out);
        d
    }

    #[test]
    fn fusion_fires_and_respects_level_boundaries() {
        let d = fusion_playground();
        let sim = Sim::new(&d);
        let stats = sim.engine_stats().unwrap().clone();
        assert!(stats.ops_fused > 0, "no superops formed: {stats:?}");
        assert!(stats.consts_folded > 0, "const peephole idle: {stats:?}");
        assert!(stats.imm_rewrites > 0, "imm peephole idle: {stats:?}");
        assert!(
            stats.ops_final < stats.ops_lowered,
            "fusion should shrink the stream: {stats:?}"
        );
        assert!(
            !stats.superops.is_empty(),
            "superop histogram empty: {stats:?}"
        );
        for need in [
            "nand", "nor", "mux_eqi", "repack", "mux_bit", "andshr", "cat3", "inc_if", "select",
        ] {
            assert!(
                stats.superops.iter().any(|(n, _)| *n == need),
                "playground should form {need}: {stats:?}"
            );
        }
        // Fusion must never reach across a level boundary: every operand
        // of every op is produced at a strictly shallower level.
        sim.engine().unwrap().check_level_invariant();
    }

    #[test]
    fn fused_and_adaptive_match_unfused_serial() {
        let d = fusion_playground();
        let configs = [
            EngineConfig::default(),
            EngineConfig::serial(),
            EngineConfig::unfused(),
            EngineConfig {
                adaptive: true,
                dispatch: crate::DispatchMode::Match,
                ..EngineConfig::default()
            },
            EngineConfig {
                adaptive: true,
                dispatch: crate::DispatchMode::Threaded,
                ..EngineConfig::default()
            },
            EngineConfig {
                adaptive: false,
                dispatch: crate::DispatchMode::Threaded,
                ..EngineConfig::default()
            },
        ];
        let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        let mut sims: Vec<Sim> = (configs.iter())
            .map(|&c| Sim::with_config(&d, ExecMode::Compiled, c))
            .collect();
        for cycle in 0..64u64 {
            let (a, b, c) = (
                cycle * 7919 % 65536,
                cycle * 104729 % 65536,
                cycle * 31 % 65536,
            );
            oracle.set("a", a);
            oracle.set("b", b);
            oracle.set("c", c);
            let want = oracle.get("out");
            for (k, sim) in sims.iter_mut().enumerate() {
                sim.set("a", a);
                sim.set("b", b);
                sim.set("c", c);
                assert_eq!(sim.get("out"), want, "config {k} diverged at cycle {cycle}");
            }
            oracle.step();
            for sim in &mut sims {
                sim.step();
            }
        }
    }

    #[test]
    fn elided_intermediates_stay_observable() {
        let d = fusion_playground();
        let mut sim = Sim::new(&d);
        let mut oracle = Sim::with_mode(&d, ExecMode::Interpreted);
        sim.set("a", 0xBEEF);
        sim.set("b", 0x1234);
        sim.set("c", 0x0F0F);
        oracle.set("a", 0xBEEF);
        oracle.set("b", 0x1234);
        oracle.set("c", 0x0F0F);
        // Probe EVERY node by handle — fused-away intermediates must
        // still read back exactly what the interpreter computes.
        for idx in 0..sim.nodes.len() {
            if matches!(
                sim.nodes[idx],
                Node::Reg { .. } | Node::ReadPort { sync: true, .. }
            ) {
                continue;
            }
            let w = crate::netlist::node_width(&sim.nodes[idx]);
            let sig = Signal {
                node: idx as u32,
                width: w,
            };
            assert_eq!(
                sim.get_signal(sig),
                oracle.get_signal(sig),
                "node {idx} mismatch"
            );
        }
    }
}
