//! `nir` — the mutable netlist optimization IR.
//!
//! [`Design`] is an append-only elaboration graph: nodes are
//! pushed once and never edited, which keeps signal handles stable and
//! bitstream derivation deterministic, but leaves no room for a compiler to
//! improve the structure. [`Nir`] is the mutable view layered on top: it
//! clones the node graph, keeps **the original index space** (so every
//! `Signal`, label and output keeps pointing at the same slot), and lets
//! optimization passes edit node *definitions* and *operand edges* in
//! place:
//!
//! * [`ConstFold`] — constant folding and propagation through gate cones,
//!   plus local identity rewrites (`x + 0`, `x · 1`, `x & ones`,
//!   constant-select muxes, full-width slices, `x ^ x`, …). Folded nodes
//!   become [`Const`](NirKind::Const) definitions *with the value they
//!   always had*, so probing them observes no difference.
//! * [`ShareSubexprs`] — common-subexpression sharing keyed on hash-consed
//!   structural identity; duplicate consumers are redirected onto the
//!   first occurrence.
//! * [`DeadGateElim`] — output-reachability liveness; unreachable gates
//!   and state are marked dead and dropped by [`Nir::to_design`]
//!   compaction.
//!
//! The [`PassManager`] iterates a pass list to a fixed point (each pass
//! reports the number of rewrites it applied; a full round of zeros
//! terminates) and fills a [`NetoptLedger`] with per-pass records plus
//! depth/fanout analysis from [`Nir::analyze`].
//! [`PassManager::standard`] is the pipeline: state unreachable from any
//! output, label, write port or `dont_touch` node is dropped with the
//! dead gates.
//!
//! A view ([`Nir::from_design`]) owns its interface, so [`ConstFold`] and
//! [`ShareSubexprs`] also move outputs and labels onto the node their
//! source aliases to (through identity rewrites and onto a structural
//! twin), leaving no identity gate in front of an output.
//! [`Design::optimized`] is the one-call pipeline, and the only netlist
//! optimizer: [`Sim`](crate::Sim) lowers whatever design it is given
//! exactly as elaborated, so optimizing is an explicit step taken before
//! `Sim::new`. Sharing is not free downstream — a shared node has several
//! consumers, which the engine's superop fusion cannot absorb — so the
//! optimized netlist can lower to fewer ops yet fuse to more.
//!
//! Nodes marked [`Design::set_dont_touch`] survive every pass verbatim:
//! never folded, never redirected onto a twin, never declared dead.
//!
//! Every pass is guarded by the proptest equivalence harness in
//! `tests/netopt_equiv.rs`: randomized netlists are co-simulated
//! optimized-vs-unoptimized in lockstep, bit-exact including memories and
//! registers, across engine configurations.

use crate::engine::{exec_scalar, lower_op};
use crate::netlist::{node_width, BinOp, Design, MemoryDecl, Node, UnOp, UNDRIVEN};
use crate::signal::mask;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Read-only classification of one [`Nir`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NirKind {
    /// Top-level input port.
    Input,
    /// Constant driver (elaborated or produced by folding).
    Const,
    /// Unary operator (not / reductions).
    Unop,
    /// Binary operator (logic, arithmetic, compares, shifts).
    Binop,
    /// Two-way multiplexer.
    Mux,
    /// Bit-field extraction.
    Slice,
    /// Concatenation.
    Concat,
    /// Clocked register.
    Reg,
    /// Memory read port (sync or async).
    ReadPort,
}

/// Fanout/depth summary of the live subgraph, produced by [`Nir::analyze`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetAnalysis {
    /// Nodes not marked dead.
    pub live_nodes: usize,
    /// Operand edges leaving live nodes (including register data/enable/
    /// clear and write-port address/data/enable references).
    pub live_edges: usize,
    /// Longest combinational path, in gate levels (state and sources are
    /// level 0).
    pub max_depth: usize,
    /// Largest number of live consumers of any single node.
    pub max_fanout: usize,
}

/// The mutable netlist IR: a cloned [`Design`] graph plus dead/`dont_touch`
/// side tables, edited in place by [`Pass`]es while preserving the source
/// design's node index space.
#[derive(Debug, Clone)]
pub struct Nir {
    d: Design,
    dont_touch: Vec<bool>,
    dead: Vec<bool>,
}

impl Design {
    /// An optimized copy of this design: [`PassManager::standard`] run to
    /// its fixed point, then compacted by [`Nir::to_design`]. Inputs,
    /// outputs, labels, write ports and `dont_touch` nodes survive; outputs
    /// and labels are bound to the node their source aliases to, so an
    /// identity chain in front of an output compacts to plain wiring. The
    /// copy keeps this design's name, so optimizing it again reproduces it
    /// byte for byte ([`Design::structural_bytes`]).
    pub fn optimized(&self) -> (Design, NetoptLedger) {
        let mut nir = Nir::from_design(self);
        let ledger = PassManager::standard().run(&mut nir);
        (nir.to_design(), ledger)
    }
}

impl Nir {
    /// Build the mutable IR from a design (the design is cloned; the
    /// original is never modified). The view owns its interface: passes
    /// rebind outputs and labels onto the node their source aliases to.
    pub fn from_design(design: &Design) -> Self {
        let n = design.nodes.len();
        let mut dont_touch = vec![false; n];
        for &i in &design.dont_touch {
            dont_touch[i as usize] = true;
        }
        Nir {
            d: design.clone(),
            dont_touch,
            dead: vec![false; n],
        }
    }

    /// Total node count, dead or alive (the index-space size).
    pub fn len(&self) -> usize {
        self.d.nodes.len()
    }

    /// True when the graph has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.d.nodes.is_empty()
    }

    /// Nodes not eliminated by [`DeadGateElim`].
    pub fn live_len(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// The kind of node `idx`.
    pub fn kind(&self, idx: u32) -> NirKind {
        match &self.d.nodes[idx as usize] {
            Node::Input { .. } => NirKind::Input,
            Node::Const { .. } => NirKind::Const,
            Node::Unop { .. } => NirKind::Unop,
            Node::Binop { .. } => NirKind::Binop,
            Node::Mux { .. } => NirKind::Mux,
            Node::Slice { .. } => NirKind::Slice,
            Node::Concat { .. } => NirKind::Concat,
            Node::Reg { .. } => NirKind::Reg,
            Node::ReadPort { .. } => NirKind::ReadPort,
        }
    }

    /// The bit width of node `idx`.
    pub fn width(&self, idx: u32) -> u8 {
        node_width(&self.d.nodes[idx as usize])
    }

    /// All operand node indices of `idx` — including register data/enable/
    /// clear and read-port addresses (undriven references are omitted).
    pub fn operands(&self, idx: u32) -> Vec<u32> {
        let mut out = Vec::new();
        visit_refs(&self.d.nodes[idx as usize], |dep| out.push(dep));
        out
    }

    /// True once [`DeadGateElim`] has marked `idx` unreachable.
    pub fn is_dead(&self, idx: u32) -> bool {
        self.dead[idx as usize]
    }

    /// Internal view for the export module: the underlying design plus
    /// the dead and `dont_touch` side tables.
    pub(crate) fn raw_parts(&self) -> (&Design, &[bool], &[bool]) {
        (&self.d, &self.dead, &self.dont_touch)
    }

    /// True if `idx` carries the `dont_touch` mark (see
    /// [`Design::set_dont_touch`]).
    pub fn is_dont_touch(&self, idx: u32) -> bool {
        self.dont_touch[idx as usize]
    }

    /// The node's constant value, when its definition is a constant.
    pub fn const_value(&self, idx: u32) -> Option<u64> {
        match &self.d.nodes[idx as usize] {
            Node::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Replace a combinational node's definition with a constant of the
    /// same width. The caller asserts the node always evaluates to
    /// `value`; passes only do this after proving it. Refused (returns
    /// `false`) for inputs, state, read ports and `dont_touch` nodes.
    pub fn fold_to_const(&mut self, idx: u32, value: u64) -> bool {
        let i = idx as usize;
        if self.dont_touch[i] {
            return false;
        }
        match &self.d.nodes[i] {
            Node::Input { .. } | Node::Reg { .. } | Node::ReadPort { .. } => false,
            node => {
                let width = node_width(node);
                self.d.nodes[i] = Node::Const {
                    value: value & mask(width),
                    width,
                };
                true
            }
        }
    }

    /// Redirect every consumer of `from` (combinational operands, register
    /// data/enable/clear, read-port addresses and write ports) onto `to`.
    /// The two nodes must have equal widths; the caller asserts they always
    /// carry equal values. Returns the number of operand edges rewritten;
    /// `from`'s own definition is left intact (probes still read it).
    pub fn redirect_uses(&mut self, from: u32, to: u32) -> usize {
        assert_eq!(
            self.width(from),
            self.width(to),
            "redirect_uses width mismatch"
        );
        if from == to {
            return 0;
        }
        let mut changed = 0;
        for i in 0..self.d.nodes.len() {
            if i == to as usize {
                continue; // never create a self-reference
            }
            rewrite_refs(&mut self.d.nodes[i], &mut |r| {
                if r == from {
                    changed += 1;
                    to
                } else {
                    r
                }
            });
        }
        for wp in &mut self.d.write_ports {
            for r in [&mut wp.addr, &mut wp.data, &mut wp.we] {
                if *r == from {
                    *r = to;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Depth/fanout analysis over the live subgraph.
    pub fn analyze(&self) -> NetAnalysis {
        let n = self.d.nodes.len();
        let mut depth = vec![0u32; n];
        let mut fanout = vec![0u32; n];
        let mut a = NetAnalysis::default();
        for (i, node) in self.d.nodes.iter().enumerate() {
            if self.dead[i] {
                continue;
            }
            a.live_nodes += 1;
            let comb = matches!(
                node,
                Node::Unop { .. }
                    | Node::Binop { .. }
                    | Node::Mux { .. }
                    | Node::Slice { .. }
                    | Node::Concat { .. }
                    | Node::ReadPort { sync: false, .. }
            );
            visit_refs(node, |dep| {
                fanout[dep as usize] += 1;
                a.live_edges += 1;
                // Combinational operands always precede their consumer in
                // push order; anything else (register feedback) is a cycle
                // boundary and restarts at depth 0.
                if comb && dep < i as u32 && !self.dead[dep as usize] {
                    depth[i] = depth[i].max(depth[dep as usize] + 1);
                }
            });
            a.max_depth = a.max_depth.max(depth[i] as usize);
        }
        for wp in &self.d.write_ports {
            for r in [wp.addr, wp.data, wp.we] {
                if r != UNDRIVEN {
                    fanout[r as usize] += 1;
                    a.live_edges += 1;
                }
            }
        }
        a.max_fanout = fanout.iter().copied().max().unwrap_or(0) as usize;
        a
    }

    /// Compact the live subgraph into a fresh [`Design`]: dead nodes and
    /// orphaned memories are dropped, indices are renumbered densely, and
    /// the interface (inputs, outputs, labels, `dont_touch` marks) is
    /// carried over. The result has the same name, so re-optimizing a
    /// compacted design at fixed point reproduces it byte-for-byte
    /// ([`Design::structural_bytes`]).
    pub fn to_design(&self) -> Design {
        let n = self.d.nodes.len();
        // A memory survives if any write port or live read port touches it.
        let mut mem_live = vec![false; self.d.mems.len()];
        for wp in &self.d.write_ports {
            mem_live[wp.mem as usize] = true;
        }
        for (i, node) in self.d.nodes.iter().enumerate() {
            if !self.dead[i] {
                if let Node::ReadPort { mem, .. } = node {
                    mem_live[*mem as usize] = true;
                }
            }
        }
        let mut out = Design::new(self.d.name().to_string());
        let mut mem_map = vec![u32::MAX; self.d.mems.len()];
        for (j, m) in self.d.mems.iter().enumerate() {
            if mem_live[j] {
                mem_map[j] = out.raw_push_memory(MemoryDecl {
                    name: m.name.clone(),
                    words: m.words,
                    width: m.width,
                    init: m.init.clone(),
                });
            }
        }
        let mut node_map = vec![u32::MAX; n];
        for (i, node) in self.d.nodes.iter().enumerate() {
            if self.dead[i] {
                continue;
            }
            let r = |idx: u32| -> u32 {
                if idx == UNDRIVEN {
                    return UNDRIVEN;
                }
                let m = node_map[idx as usize];
                debug_assert_ne!(m, u32::MAX, "live node depends on a dead node");
                m
            };
            let copied = match node {
                Node::Input { name, width } => Node::Input {
                    name: name.clone(),
                    width: *width,
                },
                Node::Const { value, width } => Node::Const {
                    value: *value,
                    width: *width,
                },
                Node::Unop { op, a, width } => Node::Unop {
                    op: *op,
                    a: r(*a),
                    width: *width,
                },
                Node::Binop { op, a, b, width } => Node::Binop {
                    op: *op,
                    a: r(*a),
                    b: r(*b),
                    width: *width,
                },
                Node::Mux { sel, t, f, width } => Node::Mux {
                    sel: r(*sel),
                    t: r(*t),
                    f: r(*f),
                    width: *width,
                },
                Node::Slice { a, lo, width } => Node::Slice {
                    a: r(*a),
                    lo: *lo,
                    width: *width,
                },
                Node::Concat { hi, lo, width } => Node::Concat {
                    hi: r(*hi),
                    lo: r(*lo),
                    width: *width,
                },
                Node::Reg {
                    name,
                    d,
                    en,
                    clr,
                    init,
                    width,
                } => Node::Reg {
                    name: name.clone(),
                    d: *d, // may be a forward ref; patched below
                    en: *en,
                    clr: *clr,
                    init: *init,
                    width: *width,
                },
                Node::ReadPort {
                    mem,
                    addr,
                    sync,
                    width,
                } => Node::ReadPort {
                    mem: mem_map[*mem as usize],
                    addr: r(*addr),
                    sync: *sync,
                    width: *width,
                },
            };
            node_map[i] = out.raw_push_node(copied);
        }
        out.raw_fixup_regs(|idx| {
            if idx == UNDRIVEN {
                UNDRIVEN
            } else {
                node_map[idx as usize]
            }
        });
        for wp in &self.d.write_ports {
            out.raw_push_write_port(
                mem_map[wp.mem as usize],
                node_map[wp.addr as usize],
                node_map[wp.data as usize],
                node_map[wp.we as usize],
            );
        }
        out.raw_copy_interface(&self.d, |idx| node_map[idx as usize]);
        for (i, &dt) in self.dont_touch.iter().enumerate() {
            if dt && !self.dead[i] {
                out.dont_touch.insert(node_map[i]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Shared edge-rewriting helpers
// ---------------------------------------------------------------------

/// Visit every driven node reference of `node`, including register
/// data/enable/clear and read-port addresses.
pub(crate) fn visit_refs(node: &Node, mut f: impl FnMut(u32)) {
    let mut g = |r: u32| {
        if r != UNDRIVEN {
            f(r);
        }
    };
    match node {
        Node::Input { .. } | Node::Const { .. } => {}
        Node::Unop { a, .. } | Node::Slice { a, .. } => g(*a),
        Node::Binop { a, b, .. } => {
            g(*a);
            g(*b);
        }
        Node::Concat { hi, lo, .. } => {
            g(*hi);
            g(*lo);
        }
        Node::Mux { sel, t, f: fv, .. } => {
            g(*sel);
            g(*t);
            g(*fv);
        }
        Node::ReadPort { addr, .. } => g(*addr),
        Node::Reg { d, en, clr, .. } => {
            g(*d);
            if let Some(e) = en {
                g(*e);
            }
            if let Some(c) = clr {
                g(*c);
            }
        }
    }
}

/// Rewrite every driven node reference of `node` through `f` (register
/// and read-port references included).
fn rewrite_refs(node: &mut Node, f: &mut impl FnMut(u32) -> u32) {
    let mut g = |r: &mut u32| {
        if *r != UNDRIVEN {
            *r = f(*r);
        }
    };
    match node {
        Node::Input { .. } | Node::Const { .. } => {}
        Node::Unop { a, .. } | Node::Slice { a, .. } => g(a),
        Node::Binop { a, b, .. } => {
            g(a);
            g(b);
        }
        Node::Concat { hi, lo, .. } => {
            g(hi);
            g(lo);
        }
        Node::Mux { sel, t, f: fv, .. } => {
            g(sel);
            g(t);
            g(fv);
        }
        Node::ReadPort { addr, .. } => g(addr),
        Node::Reg { d, en, clr, .. } => {
            g(d);
            if let Some(e) = en {
                g(e);
            }
            if let Some(c) = clr {
                g(c);
            }
        }
    }
}

fn resolve(alias: &[u32], mut i: u32) -> u32 {
    while alias[i as usize] != i {
        i = alias[i as usize];
    }
    i
}

/// Materialize the alias table into a node's *combinational* operand edges
/// (register and write-port references may be forward and are fixed up
/// once per sweep with the completed table). Returns edges changed.
fn rewrite_comb_refs(node: &mut Node, alias: &[u32]) -> usize {
    if matches!(node, Node::Reg { .. }) {
        return 0;
    }
    let mut changed = 0;
    rewrite_refs(node, &mut |r| {
        let t = resolve(alias, r);
        if t != r {
            changed += 1;
        }
        t
    });
    changed
}

/// Materialize the alias table into register and write-port references
/// (these may point forward, so they are rewritten only after a full
/// sweep has populated the table) and into outputs and labels. Returns
/// references changed.
fn rewrite_state_refs(nir: &mut Nir, alias: &[u32]) -> usize {
    let mut changed = 0;
    for i in 0..nir.d.nodes.len() {
        if nir.dead[i] {
            continue;
        }
        if let node @ Node::Reg { .. } = &mut nir.d.nodes[i] {
            rewrite_refs(node, &mut |r| {
                let t = resolve(alias, r);
                if t != r {
                    changed += 1;
                }
                t
            });
        }
    }
    for wp in &mut nir.d.write_ports {
        for r in [&mut wp.addr, &mut wp.data, &mut wp.we] {
            if *r == UNDRIVEN {
                continue;
            }
            let t = resolve(alias, *r);
            if t != *r {
                *r = t;
                changed += 1;
            }
        }
    }
    let outputs = nir.d.outputs.iter_mut().map(|o| &mut o.src);
    let labels = nir.d.names.values_mut().map(|sig| &mut sig.node);
    for r in outputs.chain(labels) {
        let t = resolve(alias, *r);
        if t != *r {
            *r = t;
            changed += 1;
        }
    }
    changed
}

/// Evaluate a node whose operands are all constants, through the engine's
/// own lowering (`lower_op`/`exec_scalar`) so the optimizer, interpreter
/// and compiled engine share one source of truth for op semantics.
fn eval_all_const(nodes: &[Node], i: u32) -> u64 {
    let op = lower_op(nodes, i).expect("const-eval target is a lowered op");
    exec_scalar(
        op.code,
        op.a,
        op.b,
        op.c,
        op.imm,
        &mut |nd| match &nodes[nd as usize] {
            Node::Const { value, .. } => *value,
            _ => unreachable!("const-eval operand is a constant"),
        },
        &mut |_, _| unreachable!("read ports are never const-folded"),
    )
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// One rewrite pass over the [`Nir`] graph.
///
/// `run` returns the number of rewrites applied **this invocation** — a
/// pass at fixed point must return 0, which is what lets the
/// [`PassManager`] terminate. Rewrites must be value-preserving per node:
/// a folded definition carries the value the node always had, and a
/// redirected edge targets a node with an always-equal value.
pub trait Pass {
    /// Stable pass name, used in [`PassRecord`]s and ledger tallies.
    fn name(&self) -> &'static str;
    /// Apply the pass once; returns rewrites applied (0 at fixed point).
    fn run(&self, nir: &mut Nir) -> usize;
}

/// Constant folding, propagation and local identity simplification.
///
/// A single forward sweep: each node's operands are first redirected
/// through the alias table built so far (so constants propagate through
/// cones bottom-up within one run), then the node is folded to a
/// [`Const`](NirKind::Const) definition or aliased onto an operand when a
/// local identity applies.
pub struct ConstFold;

enum Rewrite {
    None,
    Fold(u64),
    Alias(u32),
}

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, nir: &mut Nir) -> usize {
        let n = nir.d.nodes.len();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut changed = 0usize;
        for i in 0..n {
            if nir.dead[i] {
                continue;
            }
            changed += rewrite_comb_refs(&mut nir.d.nodes[i], &alias);
            if nir.dont_touch[i] {
                continue;
            }
            let rewrite = {
                let nodes = &nir.d.nodes;
                let cv = |idx: u32| -> Option<u64> {
                    match &nodes[idx as usize] {
                        Node::Const { value, .. } => Some(*value),
                        _ => None,
                    }
                };
                match &nodes[i] {
                    Node::Input { .. }
                    | Node::Const { .. }
                    | Node::Reg { .. }
                    | Node::ReadPort { .. } => Rewrite::None,
                    Node::Unop { a, .. } => {
                        if cv(*a).is_some() {
                            Rewrite::Fold(eval_all_const(nodes, i as u32))
                        } else {
                            Rewrite::None
                        }
                    }
                    Node::Binop { op, a, b, width } => {
                        let m = mask(*width);
                        match (cv(*a), cv(*b)) {
                            (Some(_), Some(_)) => Rewrite::Fold(eval_all_const(nodes, i as u32)),
                            // Identities with a zero operand.
                            (Some(0), None)
                                if matches!(op, BinOp::Or | BinOp::Xor | BinOp::Add) =>
                            {
                                Rewrite::Alias(*b)
                            }
                            (None, Some(0))
                                if matches!(
                                    op,
                                    BinOp::Or
                                        | BinOp::Xor
                                        | BinOp::Add
                                        | BinOp::Sub
                                        | BinOp::Shl
                                        | BinOp::Shr
                                ) =>
                            {
                                Rewrite::Alias(*a)
                            }
                            // Zero absorption.
                            (Some(0), None) | (None, Some(0))
                                if matches!(op, BinOp::And | BinOp::Mul) =>
                            {
                                Rewrite::Fold(0)
                            }
                            // Multiplicative / all-ones identities.
                            (None, Some(1)) if matches!(op, BinOp::Mul) => Rewrite::Alias(*a),
                            (Some(1), None) if matches!(op, BinOp::Mul) => Rewrite::Alias(*b),
                            (None, Some(k)) if matches!(op, BinOp::And) && k == m => {
                                Rewrite::Alias(*a)
                            }
                            (Some(k), None) if matches!(op, BinOp::And) && k == m => {
                                Rewrite::Alias(*b)
                            }
                            // Same-operand identities (a and b already
                            // resolved, so structural twins compare equal).
                            (None, None) if a == b => match op {
                                BinOp::Xor | BinOp::Sub | BinOp::Ne | BinOp::Lt => Rewrite::Fold(0),
                                BinOp::Eq | BinOp::Le => Rewrite::Fold(1),
                                BinOp::And | BinOp::Or => Rewrite::Alias(*a),
                                _ => Rewrite::None,
                            },
                            _ => Rewrite::None,
                        }
                    }
                    Node::Mux { sel, t, f, .. } => match cv(*sel) {
                        Some(0) => match cv(*f) {
                            Some(v) => Rewrite::Fold(v),
                            None => Rewrite::Alias(*f),
                        },
                        Some(_) => match cv(*t) {
                            Some(v) => Rewrite::Fold(v),
                            None => Rewrite::Alias(*t),
                        },
                        None if t == f => Rewrite::Alias(*t),
                        None => Rewrite::None,
                    },
                    Node::Slice { a, lo, width } => {
                        if cv(*a).is_some() {
                            Rewrite::Fold(eval_all_const(nodes, i as u32))
                        } else if *lo == 0 && *width == node_width(&nodes[*a as usize]) {
                            Rewrite::Alias(*a) // full-width slice
                        } else {
                            Rewrite::None
                        }
                    }
                    Node::Concat { hi, lo, .. } => {
                        if cv(*hi).is_some() && cv(*lo).is_some() {
                            Rewrite::Fold(eval_all_const(nodes, i as u32))
                        } else {
                            Rewrite::None
                        }
                    }
                }
            };
            match rewrite {
                Rewrite::None => {}
                Rewrite::Fold(v) => {
                    let width = node_width(&nir.d.nodes[i]);
                    nir.d.nodes[i] = Node::Const {
                        value: v & mask(width),
                        width,
                    };
                    changed += 1;
                }
                // Alias discovery itself is not a rewrite — materializing
                // it into consumer edges is, which keeps repeated runs at
                // fixed point returning 0 even though the identity is
                // rediscovered each time.
                Rewrite::Alias(t) => alias[i] = resolve(&alias, t),
            }
        }
        changed + rewrite_state_refs(nir, &alias)
    }
}

/// Structural identity of a pure combinational node (operands already
/// resolved through the current alias table), for hash-consed CSE.
#[derive(Hash, PartialEq, Eq)]
enum NodeKey {
    Unop(UnOp, u32, u8),
    Binop(BinOp, u32, u32, u8),
    Mux(u32, u32, u32, u8),
    Slice(u32, u8, u8),
    Concat(u32, u32, u8),
}

/// Common-subexpression sharing: pure combinational nodes with identical
/// structure (kind, parameters, resolved operands) collapse onto their
/// first occurrence; only consumer edges move, duplicate definitions stay
/// readable. Registers and read ports are stateful and never shared;
/// `dont_touch` nodes may *be* a representative but are never merged away.
pub struct ShareSubexprs;

impl Pass for ShareSubexprs {
    fn name(&self) -> &'static str {
        "share-subexprs"
    }

    fn run(&self, nir: &mut Nir) -> usize {
        let n = nir.d.nodes.len();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut seen: HashMap<NodeKey, u32> = HashMap::new();
        let mut changed = 0usize;
        for i in 0..n {
            if nir.dead[i] {
                continue;
            }
            changed += rewrite_comb_refs(&mut nir.d.nodes[i], &alias);
            let key = match &nir.d.nodes[i] {
                Node::Unop { op, a, width } => Some(NodeKey::Unop(*op, *a, *width)),
                Node::Binop { op, a, b, width } => Some(NodeKey::Binop(*op, *a, *b, *width)),
                Node::Mux { sel, t, f, width } => Some(NodeKey::Mux(*sel, *t, *f, *width)),
                Node::Slice { a, lo, width } => Some(NodeKey::Slice(*a, *lo, *width)),
                Node::Concat { hi, lo, width } => Some(NodeKey::Concat(*hi, *lo, *width)),
                _ => None,
            };
            let Some(key) = key else { continue };
            match seen.entry(key) {
                Entry::Occupied(e) => {
                    if !nir.dont_touch[i] {
                        alias[i] = *e.get();
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
            }
        }
        changed + rewrite_state_refs(nir, &alias)
    }
}

/// Dead-gate elimination by reachability from the observable roots:
/// inputs, outputs, labels, write-port operands and `dont_touch` nodes.
/// Registers and read ports no root reaches are dead too.
pub struct DeadGateElim;

impl Pass for DeadGateElim {
    fn name(&self) -> &'static str {
        "dead-gate-elim"
    }

    fn run(&self, nir: &mut Nir) -> usize {
        let n = nir.d.nodes.len();
        let mut live = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mark = |idx: u32, live: &mut Vec<bool>, stack: &mut Vec<u32>| {
            if !live[idx as usize] {
                live[idx as usize] = true;
                stack.push(idx);
            }
        };
        for (i, node) in nir.d.nodes.iter().enumerate() {
            if nir.dead[i] {
                continue;
            }
            if matches!(node, Node::Input { .. }) || nir.dont_touch[i] {
                mark(i as u32, &mut live, &mut stack);
            }
        }
        for o in &nir.d.outputs {
            mark(o.src, &mut live, &mut stack);
        }
        for sig in nir.d.names.values() {
            mark(sig.node, &mut live, &mut stack);
        }
        for wp in &nir.d.write_ports {
            for r in [wp.addr, wp.data, wp.we] {
                if r != UNDRIVEN {
                    mark(r, &mut live, &mut stack);
                }
            }
        }
        while let Some(idx) = stack.pop() {
            visit_refs(&nir.d.nodes[idx as usize], |dep| {
                debug_assert!(!nir.dead[dep as usize], "live node references a dead node");
                mark(dep, &mut live, &mut stack);
            });
        }
        let mut changed = 0;
        for (i, &alive) in live.iter().enumerate().take(n) {
            if !alive && !nir.dead[i] {
                nir.dead[i] = true;
                changed += 1;
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Pass manager + ledger
// ---------------------------------------------------------------------

/// One pass invocation's accounting, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// The pass's [`Pass::name`].
    pub pass: &'static str,
    /// Zero-based fixed-point iteration this invocation ran in.
    pub iteration: usize,
    /// Rewrites the invocation applied.
    pub rewrites: usize,
}

/// Aggregate accounting of one [`PassManager::run`], returned by
/// [`Design::optimized`] and recorded in the bench `BENCH_netopt.json`
/// artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetoptLedger {
    /// Live nodes before the pipeline ran.
    pub nodes_before: usize,
    /// Live nodes after the pipeline reached its fixed point.
    pub nodes_after: usize,
    /// Rewrites applied by [`ConstFold`] (definitions folded to constants
    /// plus operand edges simplified through identities).
    pub consts_folded: usize,
    /// Operand edges [`ShareSubexprs`] redirected onto shared structure.
    pub subexprs_shared: usize,
    /// Gates [`DeadGateElim`] marked unreachable.
    pub dead_gates: usize,
    /// Fixed-point iterations executed (the last one applies 0 rewrites).
    pub iterations: usize,
    /// Longest combinational path before the pipeline, in gate levels.
    pub max_depth_before: usize,
    /// Longest combinational path at the fixed point.
    pub max_depth_after: usize,
    /// Per-invocation records, in execution order.
    pub passes: Vec<PassRecord>,
}

impl NetoptLedger {
    /// Fraction of live nodes removed: `1 - after/before` (0 for an empty
    /// graph).
    pub fn node_reduction(&self) -> f64 {
        if self.nodes_before == 0 {
            0.0
        } else {
            1.0 - self.nodes_after as f64 / self.nodes_before as f64
        }
    }
}

/// Runs an ordered pass list to a fixed point with per-pass accounting.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    /// Safety bound on fixed-point iterations (the standard pipelines
    /// quiesce in 2–3; the bound only matters for pathological custom
    /// passes).
    pub max_iterations: usize,
}

impl PassManager {
    /// The pipeline: [`ConstFold`], [`ShareSubexprs`], then
    /// [`DeadGateElim`] (state unreachable from every observable root is
    /// dropped). Use with [`Nir::to_design`] for export or re-elaboration.
    pub fn standard() -> Self {
        Self::with_passes(vec![
            Box::new(ConstFold),
            Box::new(ShareSubexprs),
            Box::new(DeadGateElim),
        ])
    }

    /// A manager over a custom pass list.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager {
            passes,
            max_iterations: 8,
        }
    }

    /// Iterate the pass list until a full round applies no rewrites (or
    /// `max_iterations` is hit), returning the filled ledger.
    pub fn run(&self, nir: &mut Nir) -> NetoptLedger {
        let mut ledger = NetoptLedger {
            nodes_before: nir.live_len(),
            max_depth_before: nir.analyze().max_depth,
            ..NetoptLedger::default()
        };
        for iteration in 0..self.max_iterations {
            let mut round = 0usize;
            for pass in &self.passes {
                let rewrites = pass.run(nir);
                match pass.name() {
                    "const-fold" => ledger.consts_folded += rewrites,
                    "share-subexprs" => ledger.subexprs_shared += rewrites,
                    "dead-gate-elim" => ledger.dead_gates += rewrites,
                    _ => {}
                }
                ledger.passes.push(PassRecord {
                    pass: pass.name(),
                    iteration,
                    rewrites,
                });
                round += rewrites;
            }
            ledger.iterations = iteration + 1;
            if round == 0 {
                break;
            }
        }
        ledger.nodes_after = nir.live_len();
        ledger.max_depth_after = nir.analyze().max_depth;
        ledger
    }
}
