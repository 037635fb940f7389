//! The netlist builder: word-level components and resource statistics.
//!
//! A [`Design`] is an append-only graph of word-level components (gates,
//! arithmetic, multiplexers, registers, memories). Builder methods return
//! [`Signal`] handles; plain Rust control flow *generates* structure, which
//! is the CHDL programming model. Each component carries an estimated
//! implementation cost (gates, flip-flops, RAM bits) so that the fabric
//! fitter can decide whether a design fits an ORCA 3T125 or Virtex XCV600.

use crate::signal::{bits_for, mask, Signal, MAX_WIDTH};
use std::collections::{HashMap, HashSet};

/// Unary word operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// AND of all bits (1-bit result).
    ReduceAnd,
    /// OR of all bits (1-bit result).
    ReduceOr,
    /// XOR of all bits — parity (1-bit result).
    ReduceXor,
}

/// Binary word operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Modular addition (wraps at the signal width).
    Add,
    /// Modular subtraction.
    Sub,
    /// Modular multiplication.
    Mul,
    /// Equality (1-bit result).
    Eq,
    /// Inequality (1-bit result).
    Ne,
    /// Unsigned less-than (1-bit result).
    Lt,
    /// Unsigned less-or-equal (1-bit result).
    Le,
    /// Logical shift left by a variable amount (shifts ≥ width give 0).
    Shl,
    /// Logical shift right by a variable amount.
    Shr,
}

/// One component in the netlist.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// External input port.
    Input { name: String, width: u8 },
    /// Constant driver.
    Const { value: u64, width: u8 },
    /// Unary operator.
    Unop { op: UnOp, a: u32, width: u8 },
    /// Binary operator.
    Binop {
        op: BinOp,
        a: u32,
        b: u32,
        width: u8,
    },
    /// 2:1 multiplexer: `sel ? t : f`.
    Mux { sel: u32, t: u32, f: u32, width: u8 },
    /// Bit-field extraction `a[lo + width - 1 .. lo]`.
    Slice { a: u32, lo: u8, width: u8 },
    /// Concatenation `{hi, lo}` (hi in the upper bits).
    Concat { hi: u32, lo: u32, width: u8 },
    /// D flip-flop bank with optional enable and synchronous clear.
    Reg {
        name: String,
        d: u32,
        en: Option<u32>,
        clr: Option<u32>,
        init: u64,
        width: u8,
    },
    /// Memory read port. `sync` ports register the read data (one-cycle
    /// latency, SSRAM-style); async ports are combinational.
    ReadPort {
        mem: u32,
        addr: u32,
        sync: bool,
        width: u8,
    },
}

/// Sentinel for a not-yet-driven register D input.
pub(crate) const UNDRIVEN: u32 = u32::MAX;

/// Handle to an on-chip memory block declared in a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) struct MemoryDecl {
    pub name: String,
    pub words: usize,
    pub width: u8,
    pub init: Vec<u64>,
}

#[derive(Debug, Clone)]
pub(crate) struct WritePortDecl {
    pub mem: u32,
    pub addr: u32,
    pub data: u32,
    pub we: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct OutputDecl {
    pub name: String,
    pub src: u32,
}

/// A register whose D input is connected after its Q output has been used,
/// enabling feedback structures. Created by [`Design::reg_slot`].
#[derive(Debug)]
#[must_use = "an undriven register slot is an elaboration error"]
pub struct RegSlot {
    pub(crate) node: u32,
    /// The register's Q output.
    pub q: Signal,
}

/// Estimated resource usage of a netlist, in the units FPGA data sheets of
/// the era used: “system gates”, flip-flops, RAM bits and I/O pins.
///
/// The estimates use simple per-component formulas (documented on
/// [`Design::stats`]); they are deliberately on the generous side so that
/// a design accepted by the fitter would plausibly route on the real part.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Estimated logic gates.
    pub gates: u64,
    /// Flip-flops (register bits, including synchronous read-port latches).
    pub flip_flops: u64,
    /// On-chip RAM bits.
    pub ram_bits: u64,
    /// I/O pins (sum of input and exposed-output widths).
    pub io_pins: u64,
    /// Total component count (nodes in the netlist).
    pub components: u64,
}

impl NetlistStats {
    /// Component-wise sum of two statistics records.
    pub fn merged(self, other: NetlistStats) -> NetlistStats {
        NetlistStats {
            gates: self.gates + other.gates,
            flip_flops: self.flip_flops + other.flip_flops,
            ram_bits: self.ram_bits + other.ram_bits,
            io_pins: self.io_pins + other.io_pins,
            components: self.components + other.components,
        }
    }
}

/// The CHDL netlist builder.
///
/// See the [crate documentation](crate) for the programming model.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) mems: Vec<MemoryDecl>,
    pub(crate) write_ports: Vec<WritePortDecl>,
    pub(crate) outputs: Vec<OutputDecl>,
    pub(crate) names: HashMap<String, Signal>,
    scope: Vec<String>,
    pub(crate) node_scopes: Vec<u32>,
    scopes: Vec<String>,
    /// Nodes the netlist optimizer must preserve verbatim (see
    /// [`Design::set_dont_touch`]).
    pub(crate) dont_touch: HashSet<u32>,
}

impl Design {
    /// An empty design with the given (reporting) name.
    pub fn new(name: impl Into<String>) -> Self {
        Design {
            name: name.into(),
            nodes: Vec::new(),
            mems: Vec::new(),
            write_ports: Vec::new(),
            outputs: Vec::new(),
            names: HashMap::new(),
            scope: Vec::new(),
            node_scopes: Vec::new(),
            scopes: vec![String::new()],
            dont_touch: HashSet::new(),
        }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn current_scope_id(&mut self) -> u32 {
        let path = self.scope.join(".");
        if let Some(idx) = self.scopes.iter().position(|s| *s == path) {
            idx as u32
        } else {
            self.scopes.push(path);
            (self.scopes.len() - 1) as u32
        }
    }

    fn push(&mut self, node: Node) -> Signal {
        let width = node_width(&node);
        let scope = self.current_scope_id();
        let idx = u32::try_from(self.nodes.len()).expect("netlist too large");
        self.nodes.push(node);
        self.node_scopes.push(scope);
        Signal { node: idx, width }
    }

    fn check_width(width: u8) {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "signal width must be 1..=64 bits, got {width}"
        );
    }

    // ------------------------------------------------------------------
    // Hierarchy
    // ------------------------------------------------------------------

    /// Enter a named hierarchy scope. Components created until the matching
    /// [`Design::pop_scope`] are attributed to it in per-scope statistics.
    pub fn push_scope(&mut self, name: impl Into<String>) {
        self.scope.push(name.into());
    }

    /// Leave the innermost scope. Panics at top level.
    pub fn pop_scope(&mut self) {
        self.scope.pop().expect("pop_scope at top level");
    }

    /// Run `f` inside a named scope (exception-safe convenience).
    pub fn scoped<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Design) -> R) -> R {
        self.push_scope(name);
        let r = f(self);
        self.pop_scope();
        r
    }

    // ------------------------------------------------------------------
    // Ports, constants, labels
    // ------------------------------------------------------------------

    /// Declare an external input port.
    pub fn input(&mut self, name: impl Into<String>, width: u8) -> Signal {
        Self::check_width(width);
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate signal name '{name}'"
        );
        let sig = self.push(Node::Input {
            name: name.clone(),
            width,
        });
        self.names.insert(name, sig);
        sig
    }

    /// Expose `src` as a named output port.
    pub fn expose_output(&mut self, name: impl Into<String>, src: Signal) {
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate signal name '{name}'"
        );
        self.names.insert(name.clone(), src);
        self.outputs.push(OutputDecl {
            name,
            src: src.node,
        });
    }

    /// Attach a probe name to an internal signal so the simulator can read
    /// it by name (does not consume I/O pins).
    pub fn label(&mut self, name: impl Into<String>, sig: Signal) {
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate signal name '{name}'"
        );
        self.names.insert(name, sig);
    }

    /// Look up a named signal (input, output or label).
    pub fn signal(&self, name: &str) -> Option<Signal> {
        self.names.get(name).copied()
    }

    /// Mark a signal's driving node `dont_touch`: the netlist optimizer
    /// ([`crate::nir`]) will never fold it to a constant, merge it with a
    /// structurally identical node, or eliminate it as dead — it survives
    /// every pass verbatim. Use this for nodes that must stay physically
    /// present (BIST hooks, trace taps, scrub-visible state).
    ///
    /// The mark travels through [`Design::instantiate`] with the child's
    /// nodes. It does not affect [`Design::structural_bytes`], so adding a
    /// mark never perturbs bitstream derivation.
    pub fn set_dont_touch(&mut self, sig: Signal) {
        assert!(
            (sig.node as usize) < self.nodes.len(),
            "dont_touch on unknown node {}",
            sig.node
        );
        self.dont_touch.insert(sig.node);
    }

    /// True if the signal's driving node carries the `dont_touch` mark.
    pub fn is_dont_touch(&self, sig: Signal) -> bool {
        self.dont_touch.contains(&sig.node)
    }

    /// A constant driver.
    pub fn lit(&mut self, value: u64, width: u8) -> Signal {
        Self::check_width(width);
        assert_eq!(
            value & !mask(width),
            0,
            "constant {value:#x} exceeds {width} bits"
        );
        self.push(Node::Const { value, width })
    }

    /// The 1-bit constant 0.
    pub fn low(&mut self) -> Signal {
        self.lit(0, 1)
    }

    /// The 1-bit constant 1.
    pub fn high(&mut self) -> Signal {
        self.lit(1, 1)
    }

    // ------------------------------------------------------------------
    // Combinational operators
    // ------------------------------------------------------------------

    fn binop(&mut self, op: BinOp, a: Signal, b: Signal) -> Signal {
        match op {
            BinOp::Shl | BinOp::Shr => {}
            _ => assert_eq!(
                a.width, b.width,
                "width mismatch in {op:?}: {} vs {}",
                a.width, b.width
            ),
        }
        let width = match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le => 1,
            _ => a.width,
        };
        self.push(Node::Binop {
            op,
            a: a.node,
            b: b.node,
            width,
        })
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: Signal) -> Signal {
        self.push(Node::Unop {
            op: UnOp::Not,
            a: a.node,
            width: a.width,
        })
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Xor, a, b)
    }

    /// Modular addition.
    pub fn add(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Add, a, b)
    }

    /// Modular subtraction.
    pub fn sub(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Sub, a, b)
    }

    /// Modular multiplication.
    pub fn mul(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Mul, a, b)
    }

    /// Equality comparison (1-bit result).
    pub fn eq(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Eq, a, b)
    }

    /// Inequality comparison (1-bit result).
    pub fn ne(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Ne, a, b)
    }

    /// Unsigned less-than (1-bit result).
    pub fn lt(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Lt, a, b)
    }

    /// Unsigned less-or-equal (1-bit result).
    pub fn le(&mut self, a: Signal, b: Signal) -> Signal {
        self.binop(BinOp::Le, a, b)
    }

    /// Unsigned greater-than (1-bit result).
    pub fn gt(&mut self, a: Signal, b: Signal) -> Signal {
        self.lt(b, a)
    }

    /// Unsigned greater-or-equal (1-bit result).
    pub fn ge(&mut self, a: Signal, b: Signal) -> Signal {
        self.le(b, a)
    }

    /// Shift left by a variable amount.
    pub fn shl(&mut self, a: Signal, amount: Signal) -> Signal {
        self.binop(BinOp::Shl, a, amount)
    }

    /// Shift right by a variable amount.
    pub fn shr(&mut self, a: Signal, amount: Signal) -> Signal {
        self.binop(BinOp::Shr, a, amount)
    }

    /// AND-reduce all bits to a single bit.
    pub fn reduce_and(&mut self, a: Signal) -> Signal {
        self.push(Node::Unop {
            op: UnOp::ReduceAnd,
            a: a.node,
            width: 1,
        })
    }

    /// OR-reduce all bits to a single bit (non-zero test).
    pub fn reduce_or(&mut self, a: Signal) -> Signal {
        self.push(Node::Unop {
            op: UnOp::ReduceOr,
            a: a.node,
            width: 1,
        })
    }

    /// XOR-reduce all bits (parity).
    pub fn reduce_xor(&mut self, a: Signal) -> Signal {
        self.push(Node::Unop {
            op: UnOp::ReduceXor,
            a: a.node,
            width: 1,
        })
    }

    /// 2:1 multiplexer: `sel ? t : f`. `sel` must be one bit wide.
    pub fn mux(&mut self, sel: Signal, t: Signal, f: Signal) -> Signal {
        assert_eq!(sel.width, 1, "mux select must be 1 bit");
        assert_eq!(t.width, f.width, "mux arm width mismatch");
        self.push(Node::Mux {
            sel: sel.node,
            t: t.node,
            f: f.node,
            width: t.width,
        })
    }

    /// Extract the bit field `a[lo + width - 1 .. lo]`.
    pub fn slice(&mut self, a: Signal, lo: u8, width: u8) -> Signal {
        Self::check_width(width);
        assert!(
            lo + width <= a.width,
            "slice [{}+{}] out of range of {}-bit signal",
            lo,
            width,
            a.width
        );
        self.push(Node::Slice {
            a: a.node,
            lo,
            width,
        })
    }

    /// Extract a single bit.
    pub fn bit(&mut self, a: Signal, index: u8) -> Signal {
        self.slice(a, index, 1)
    }

    /// Concatenate two signals, `hi` in the upper bits.
    pub fn concat(&mut self, hi: Signal, lo: Signal) -> Signal {
        let width = hi.width.checked_add(lo.width).expect("concat overflow");
        Self::check_width(width);
        self.push(Node::Concat {
            hi: hi.node,
            lo: lo.node,
            width,
        })
    }

    /// Concatenate many signals; `parts[0]` ends up in the **most**
    /// significant position. Panics on empty input or if the total exceeds
    /// 64 bits.
    pub fn cat(&mut self, parts: &[Signal]) -> Signal {
        let (&first, rest) = parts.split_first().expect("cat of empty slice");
        rest.iter().fold(first, |acc, &lo| self.concat(acc, lo))
    }

    /// Zero-extend to `width` bits (no-op when already that wide).
    pub fn zext(&mut self, a: Signal, width: u8) -> Signal {
        Self::check_width(width);
        assert!(width >= a.width, "zext would truncate");
        if width == a.width {
            a
        } else {
            let zeros = self.lit(0, width - a.width);
            self.concat(zeros, a)
        }
    }

    /// Truncate to the low `width` bits.
    pub fn trunc(&mut self, a: Signal, width: u8) -> Signal {
        if width == a.width {
            a
        } else {
            self.slice(a, 0, width)
        }
    }

    // ------------------------------------------------------------------
    // Registers
    // ------------------------------------------------------------------

    /// A D register initialised to 0.
    pub fn reg(&mut self, name: impl Into<String>, d: Signal) -> Signal {
        self.push(Node::Reg {
            name: name.into(),
            d: d.node,
            en: None,
            clr: None,
            init: 0,
            width: d.width,
        })
    }

    /// A D register with clock enable.
    pub fn reg_en(&mut self, name: impl Into<String>, d: Signal, en: Signal) -> Signal {
        assert_eq!(en.width, 1, "register enable must be 1 bit");
        self.push(Node::Reg {
            name: name.into(),
            d: d.node,
            en: Some(en.node),
            clr: None,
            init: 0,
            width: d.width,
        })
    }

    /// A fully general register: optional enable, optional synchronous
    /// clear (clear wins over enable), and a reset/clear value.
    pub fn reg_full(
        &mut self,
        name: impl Into<String>,
        d: Signal,
        en: Option<Signal>,
        clr: Option<Signal>,
        init: u64,
    ) -> Signal {
        if let Some(en) = en {
            assert_eq!(en.width, 1, "register enable must be 1 bit");
        }
        if let Some(clr) = clr {
            assert_eq!(clr.width, 1, "register clear must be 1 bit");
        }
        assert_eq!(
            init & !mask(d.width),
            0,
            "init value exceeds register width"
        );
        self.push(Node::Reg {
            name: name.into(),
            d: d.node,
            en: en.map(|s| s.node),
            clr: clr.map(|s| s.node),
            init,
            width: d.width,
        })
    }

    /// Declare a register whose D input will be connected later with
    /// [`Design::drive_reg`] — the primitive for feedback loops.
    pub fn reg_slot(&mut self, name: impl Into<String>, width: u8, init: u64) -> RegSlot {
        Self::check_width(width);
        assert_eq!(init & !mask(width), 0, "init value exceeds register width");
        let q = self.push(Node::Reg {
            name: name.into(),
            d: UNDRIVEN,
            en: None,
            clr: None,
            init,
            width,
        });
        RegSlot { node: q.node, q }
    }

    /// Connect the D input of a register slot. Panics if already driven.
    pub fn drive_reg(&mut self, slot: RegSlot, d: Signal) {
        let Node::Reg {
            d: slot_d, width, ..
        } = &mut self.nodes[slot.node as usize]
        else {
            unreachable!("RegSlot points at a non-register node");
        };
        assert_eq!(*width, d.width, "drive_reg width mismatch");
        assert_eq!(*slot_d, UNDRIVEN, "register slot driven twice");
        *slot_d = d.node;
    }

    /// Attach enable/clear controls to a register slot's register.
    pub fn set_reg_controls(&mut self, slot: &RegSlot, en: Option<Signal>, clr: Option<Signal>) {
        let Node::Reg { en: e, clr: c, .. } = &mut self.nodes[slot.node as usize] else {
            unreachable!("RegSlot points at a non-register node");
        };
        *e = en.map(|s| s.node);
        *c = clr.map(|s| s.node);
    }

    /// Build a register with feedback: `f` receives the register's current
    /// value (Q) and returns its next value (D). Returns Q.
    ///
    /// This is the idiomatic way to write accumulators and counters:
    ///
    /// ```
    /// # use atlantis_chdl::prelude::*;
    /// let mut d = Design::new("c");
    /// let count = d.reg_feedback("count", 8, |d, q| {
    ///     let one = d.lit(1, 8);
    ///     d.add(q, one)
    /// });
    /// # let _ = count;
    /// ```
    pub fn reg_feedback(
        &mut self,
        name: impl Into<String>,
        width: u8,
        f: impl FnOnce(&mut Design, Signal) -> Signal,
    ) -> Signal {
        let slot = self.reg_slot(name, width, 0);
        let q = slot.q;
        let d = f(self, q);
        self.drive_reg(slot, d);
        q
    }

    // ------------------------------------------------------------------
    // Memories
    // ------------------------------------------------------------------

    /// Declare an on-chip memory block of `words` × `width` bits,
    /// zero-initialised.
    pub fn memory(&mut self, name: impl Into<String>, words: usize, width: u8) -> MemId {
        Self::check_width(width);
        assert!(words > 0, "memory must have at least one word");
        let id = MemId(u32::try_from(self.mems.len()).expect("too many memories"));
        self.mems.push(MemoryDecl {
            name: name.into(),
            words,
            width,
            init: vec![0; words],
        });
        id
    }

    /// Declare a memory with initial contents (a ROM if never written).
    pub fn rom(&mut self, name: impl Into<String>, width: u8, contents: &[u64]) -> MemId {
        let id = self.memory(name, contents.len(), width);
        let m = mask(width);
        for (i, &v) in contents.iter().enumerate() {
            assert_eq!(v & !m, 0, "ROM word {i} exceeds {width} bits");
            self.mems[id.0 as usize].init[i] = v;
        }
        id
    }

    /// Look up a declared memory by name (hierarchical instantiation
    /// prefixes instance names, e.g. `"u0.ram"`).
    pub fn find_memory(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(|i| MemId(i as u32))
    }

    /// Number of words in a memory.
    pub fn mem_words(&self, mem: MemId) -> usize {
        self.mems[mem.0 as usize].words
    }

    /// Word width of a memory.
    pub fn mem_width(&self, mem: MemId) -> u8 {
        self.mems[mem.0 as usize].width
    }

    /// A combinational (asynchronous) read port — DP-RAM style.
    /// Out-of-range addresses read 0.
    pub fn read_async(&mut self, mem: MemId, addr: Signal) -> Signal {
        let width = self.mem_width(mem);
        self.push(Node::ReadPort {
            mem: mem.0,
            addr: addr.node,
            sync: false,
            width,
        })
    }

    /// A registered (synchronous) read port — SSRAM style: data for the
    /// address presented in cycle *n* appears in cycle *n + 1*.
    pub fn read_sync(&mut self, mem: MemId, addr: Signal) -> Signal {
        let width = self.mem_width(mem);
        self.push(Node::ReadPort {
            mem: mem.0,
            addr: addr.node,
            sync: true,
            width,
        })
    }

    /// A synchronous write port: when `we` is 1 at a clock edge, `data` is
    /// written to `addr`. Reads in the same cycle see the *old* contents.
    /// Out-of-range addresses are ignored. When several write ports hit the
    /// same address in one cycle, the port declared last wins.
    pub fn write_port(&mut self, mem: MemId, addr: Signal, data: Signal, we: Signal) {
        assert_eq!(we.width, 1, "write enable must be 1 bit");
        assert_eq!(
            data.width,
            self.mem_width(mem),
            "write data width mismatch on memory '{}'",
            self.mems[mem.0 as usize].name
        );
        self.write_ports.push(WritePortDecl {
            mem: mem.0,
            addr: addr.node,
            data: data.node,
            we: we.node,
        });
    }

    // ------------------------------------------------------------------
    // Raw construction hooks for the optimizer (crate-internal)
    // ------------------------------------------------------------------

    pub(crate) fn raw_push_node(&mut self, node: Node) -> u32 {
        self.push(node).node
    }

    pub(crate) fn raw_push_memory(&mut self, decl: MemoryDecl) -> u32 {
        let id = self.mems.len() as u32;
        self.mems.push(decl);
        id
    }

    pub(crate) fn raw_push_write_port(&mut self, mem: u32, addr: u32, data: u32, we: u32) {
        self.write_ports.push(WritePortDecl {
            mem,
            addr,
            data,
            we,
        });
    }

    /// Rewrite every register's data/enable/clear references through `f`
    /// (used by the optimizer, whose registers may carry forward refs in
    /// the source design's index space until this fix-up).
    pub(crate) fn raw_fixup_regs(&mut self, f: impl Fn(u32) -> u32) {
        for node in &mut self.nodes {
            if let Node::Reg { d, en, clr, .. } = node {
                *d = f(*d);
                if let Some(e) = en {
                    *e = f(*e);
                }
                if let Some(c) = clr {
                    *c = f(*c);
                }
            }
        }
    }

    /// Copy outputs and the name map from `src`, translating node indices
    /// through `f`.
    pub(crate) fn raw_copy_interface(&mut self, src: &Design, f: impl Fn(u32) -> u32) {
        for o in &src.outputs {
            self.outputs.push(OutputDecl {
                name: o.name.clone(),
                src: f(o.src),
            });
        }
        for (name, sig) in &src.names {
            self.names.insert(
                name.clone(),
                Signal {
                    node: f(sig.node),
                    width: sig.width,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Hierarchical instantiation
    // ------------------------------------------------------------------

    /// Instantiate `child` as a component inside this design — the CHDL
    /// composition idiom: a reusable design is authored standalone (with
    /// its own inputs/outputs) and then instantiated any number of times,
    /// its inputs bound to parent signals.
    ///
    /// * every child input must appear in `bindings` with matching width,
    /// * the child's internal structure (gates, registers, memories,
    ///   write ports) is copied under the `instance` scope,
    /// * all of the child's named signals become `"<instance>.<name>"`
    ///   labels in the parent,
    /// * the child's outputs are returned as `(name, signal)` pairs for
    ///   the parent to wire onward (they are *not* auto-exposed).
    pub fn instantiate(
        &mut self,
        child: &Design,
        instance: &str,
        bindings: &[(&str, Signal)],
    ) -> Vec<(String, Signal)> {
        // Resolve bindings to child input node indices.
        let mut bound: HashMap<u32, Signal> = HashMap::new();
        for (name, sig) in bindings {
            let child_sig = child
                .signal(name)
                .unwrap_or_else(|| panic!("child has no signal '{name}'"));
            let Node::Input { width, .. } = &child.nodes[child_sig.node as usize] else {
                panic!("binding target '{name}' is not a child input");
            };
            assert_eq!(*width, sig.width, "binding '{name}' width mismatch");
            bound.insert(child_sig.node, *sig);
        }
        for node in &child.nodes {
            if let Node::Input { name, .. } = node {
                assert!(
                    bound.contains_key(&child.signal(name).unwrap().node),
                    "child input '{name}' left unbound"
                );
            }
        }

        self.push_scope(instance.to_string());

        // Memories first (nodes reference them by remapped id).
        let mem_base = self.mems.len() as u32;
        for m in &child.mems {
            self.mems.push(MemoryDecl {
                name: format!("{instance}.{}", m.name),
                words: m.words,
                width: m.width,
                init: m.init.clone(),
            });
        }

        // Pass 1: reserve indices. Inputs map to their bindings; all other
        // nodes are appended in child order.
        let mut map = vec![0u32; child.nodes.len()];
        let mut next = self.nodes.len() as u32;
        for (i, node) in child.nodes.iter().enumerate() {
            if let Node::Input { .. } = node {
                map[i] = bound[&(i as u32)].node;
            } else {
                map[i] = next;
                next += 1;
            }
        }
        // Pass 2: copy with remapped operands.
        let r = |idx: u32, map: &[u32]| -> u32 {
            if idx == UNDRIVEN {
                UNDRIVEN
            } else {
                map[idx as usize]
            }
        };
        for (i, node) in child.nodes.iter().enumerate() {
            let copied = match node {
                Node::Input { .. } => continue,
                Node::Const { value, width } => Node::Const {
                    value: *value,
                    width: *width,
                },
                Node::Unop { op, a, width } => Node::Unop {
                    op: *op,
                    a: r(*a, &map),
                    width: *width,
                },
                Node::Binop { op, a, b, width } => Node::Binop {
                    op: *op,
                    a: r(*a, &map),
                    b: r(*b, &map),
                    width: *width,
                },
                Node::Mux { sel, t, f, width } => Node::Mux {
                    sel: r(*sel, &map),
                    t: r(*t, &map),
                    f: r(*f, &map),
                    width: *width,
                },
                Node::Slice { a, lo, width } => Node::Slice {
                    a: r(*a, &map),
                    lo: *lo,
                    width: *width,
                },
                Node::Concat { hi, lo, width } => Node::Concat {
                    hi: r(*hi, &map),
                    lo: r(*lo, &map),
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
                    name: format!("{instance}.{name}"),
                    d: r(*d, &map),
                    en: en.map(|e| r(e, &map)),
                    clr: clr.map(|c| r(c, &map)),
                    init: *init,
                    width: *width,
                },
                Node::ReadPort {
                    mem,
                    addr,
                    sync,
                    width,
                } => Node::ReadPort {
                    mem: mem + mem_base,
                    addr: r(*addr, &map),
                    sync: *sync,
                    width: *width,
                },
            };
            let sig = self.push(copied);
            debug_assert_eq!(sig.node, map[i]);
        }
        for wp in &child.write_ports {
            self.write_ports.push(WritePortDecl {
                mem: wp.mem + mem_base,
                addr: r(wp.addr, &map),
                data: r(wp.data, &map),
                we: r(wp.we, &map),
            });
        }
        // dont_touch marks follow the copied nodes (child inputs map onto
        // parent bindings, which stay under the parent's control).
        for &n in &child.dont_touch {
            if !matches!(child.nodes[n as usize], Node::Input { .. }) {
                self.dont_touch.insert(map[n as usize]);
            }
        }
        // Re-label the child's named signals under the instance prefix.
        let mut names: Vec<(&String, &Signal)> = child.names.iter().collect();
        names.sort_by_key(|(n, _)| n.as_str());
        for (name, sig) in names {
            let mapped = Signal {
                node: map[sig.node as usize],
                width: sig.width,
            };
            self.label(format!("{instance}.{name}"), mapped);
        }
        self.pop_scope();

        child
            .outputs
            .iter()
            .map(|o| {
                let width = node_width(&child.nodes[o.src as usize]);
                (
                    o.name.clone(),
                    Signal {
                        node: map[o.src as usize],
                        width,
                    },
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Estimated resource usage of the whole design.
    ///
    /// Cost model (per component, `w` = width):
    /// * bitwise ops, NOT: `w` gates; reductions: `w` gates
    /// * add/sub: `6w` (carry chain), mul: `6w²` (array multiplier)
    /// * comparisons: `3w`; mux: `3w`; variable shift: `3w·⌈log₂w⌉`
    /// * slice/concat/constants: free (wiring)
    /// * register: `w` flip-flops, plus `w` gates per control input
    /// * memory: its capacity in RAM bits; sync read ports add `w` FFs
    /// * I/O pins: input widths + exposed output widths
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for node in &self.nodes {
            s.components += 1;
            match node {
                Node::Input { width, .. } => s.io_pins += *width as u64,
                Node::Const { .. } | Node::Slice { .. } | Node::Concat { .. } => {}
                Node::Unop { width, op, .. } => {
                    s.gates += match op {
                        UnOp::Not => *width as u64,
                        _ => *width as u64,
                    }
                }
                Node::Binop { op, width, .. } => {
                    let w = *width as u64;
                    s.gates += match op {
                        BinOp::And | BinOp::Or | BinOp::Xor => w,
                        BinOp::Add | BinOp::Sub => 6 * w,
                        BinOp::Mul => 6 * w * w,
                        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le => 3 * w,
                        BinOp::Shl | BinOp::Shr => 3 * w * u64::from(bits_for(w.max(2))),
                    };
                }
                Node::Mux { width, .. } => s.gates += 3 * *width as u64,
                Node::Reg { width, en, clr, .. } => {
                    let w = *width as u64;
                    s.flip_flops += w;
                    if en.is_some() {
                        s.gates += w;
                    }
                    if clr.is_some() {
                        s.gates += w;
                    }
                }
                Node::ReadPort { sync, width, .. } => {
                    if *sync {
                        s.flip_flops += *width as u64;
                    }
                }
            }
        }
        for m in &self.mems {
            s.ram_bits += m.words as u64 * m.width as u64;
        }
        for o in &self.outputs {
            s.io_pins += node_width(&self.nodes[o.src as usize]) as u64;
        }
        s
    }

    /// Resource usage grouped by hierarchy scope (the empty string is the
    /// top level). Memory capacity is attributed to the top level.
    pub fn stats_by_scope(&self) -> Vec<(String, NetlistStats)> {
        let mut per: HashMap<u32, NetlistStats> = HashMap::new();
        for (idx, _node) in self.nodes.iter().enumerate() {
            let scope = self.node_scopes[idx];
            let entry = per.entry(scope).or_default();
            // Count components per scope; detailed costs reuse a one-node
            // design trick: simpler to recompute inline.
            entry.components += 1;
        }
        let mut detailed: HashMap<u32, NetlistStats> = HashMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let scope = self.node_scopes[idx];
            let s = detailed.entry(scope).or_default();
            s.components += 1;
            accumulate_node_cost(node, s);
        }
        let mut out: Vec<(String, NetlistStats)> = detailed
            .into_iter()
            .map(|(scope, s)| (self.scopes[scope as usize].clone(), s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let _ = per;
        out
    }

    /// Number of components in the netlist.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the netlist has no components.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Names and widths of all declared input ports, in declaration order.
    pub fn inputs(&self) -> Vec<(String, u8)> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Input { name, width } => Some((name.clone(), *width)),
                _ => None,
            })
            .collect()
    }

    /// Names and widths of all exposed outputs, in declaration order.
    pub fn output_ports(&self) -> Vec<(String, u8)> {
        self.outputs
            .iter()
            .map(|o| (o.name.clone(), node_width(&self.nodes[o.src as usize])))
            .collect()
    }

    /// A stable byte serialization of the netlist structure, used by the
    /// fabric layer to derive bitstream contents deterministically.
    pub fn structural_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nodes.len() * 8 + 64);
        out.extend_from_slice(self.name.as_bytes());
        out.push(0);
        for node in &self.nodes {
            encode_node(node, &mut out);
        }
        for m in &self.mems {
            out.extend_from_slice(&(m.words as u64).to_le_bytes());
            out.push(m.width);
            for &w in &m.init {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        for wp in &self.write_ports {
            out.extend_from_slice(&wp.mem.to_le_bytes());
            out.extend_from_slice(&wp.addr.to_le_bytes());
            out.extend_from_slice(&wp.data.to_le_bytes());
            out.extend_from_slice(&wp.we.to_le_bytes());
        }
        for o in &self.outputs {
            out.extend_from_slice(o.name.as_bytes());
            out.push(0);
            out.extend_from_slice(&o.src.to_le_bytes());
        }
        out
    }
}

fn accumulate_node_cost(node: &Node, s: &mut NetlistStats) {
    match node {
        Node::Input { width, .. } => s.io_pins += *width as u64,
        Node::Const { .. } | Node::Slice { .. } | Node::Concat { .. } => {}
        Node::Unop { width, .. } => s.gates += *width as u64,
        Node::Binop { op, width, .. } => {
            let w = *width as u64;
            s.gates += match op {
                BinOp::And | BinOp::Or | BinOp::Xor => w,
                BinOp::Add | BinOp::Sub => 6 * w,
                BinOp::Mul => 6 * w * w,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le => 3 * w,
                BinOp::Shl | BinOp::Shr => 3 * w * u64::from(bits_for(w.max(2))),
            };
        }
        Node::Mux { width, .. } => s.gates += 3 * *width as u64,
        Node::Reg { width, en, clr, .. } => {
            let w = *width as u64;
            s.flip_flops += w;
            if en.is_some() {
                s.gates += w;
            }
            if clr.is_some() {
                s.gates += w;
            }
        }
        Node::ReadPort { sync, width, .. } => {
            if *sync {
                s.flip_flops += *width as u64;
            }
        }
    }
}

fn encode_node(node: &Node, out: &mut Vec<u8>) {
    match node {
        Node::Input { name, width } => {
            out.push(1);
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.push(*width);
        }
        Node::Const { value, width } => {
            out.push(2);
            out.extend_from_slice(&value.to_le_bytes());
            out.push(*width);
        }
        Node::Unop { op, a, width } => {
            out.push(3);
            out.push(*op as u8);
            out.extend_from_slice(&a.to_le_bytes());
            out.push(*width);
        }
        Node::Binop { op, a, b, width } => {
            out.push(4);
            out.push(*op as u8);
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
            out.push(*width);
        }
        Node::Mux { sel, t, f, width } => {
            out.push(5);
            out.extend_from_slice(&sel.to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&f.to_le_bytes());
            out.push(*width);
        }
        Node::Slice { a, lo, width } => {
            out.push(6);
            out.extend_from_slice(&a.to_le_bytes());
            out.push(*lo);
            out.push(*width);
        }
        Node::Concat { hi, lo, width } => {
            out.push(7);
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.push(*width);
        }
        Node::Reg {
            name,
            d,
            en,
            clr,
            init,
            width,
        } => {
            out.push(8);
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&en.unwrap_or(UNDRIVEN).to_le_bytes());
            out.extend_from_slice(&clr.unwrap_or(UNDRIVEN).to_le_bytes());
            out.extend_from_slice(&init.to_le_bytes());
            out.push(*width);
        }
        Node::ReadPort {
            mem,
            addr,
            sync,
            width,
        } => {
            out.push(9);
            out.extend_from_slice(&mem.to_le_bytes());
            out.extend_from_slice(&addr.to_le_bytes());
            out.push(u8::from(*sync));
            out.push(*width);
        }
    }
}

pub(crate) fn node_width(node: &Node) -> u8 {
    match node {
        Node::Input { width, .. }
        | Node::Const { width, .. }
        | Node::Unop { width, .. }
        | Node::Binop { width, .. }
        | Node::Mux { width, .. }
        | Node::Slice { width, .. }
        | Node::Concat { width, .. }
        | Node::Reg { width, .. }
        | Node::ReadPort { width, .. } => *width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_and_lookup() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        assert_eq!(d.signal("a"), Some(a));
        assert_eq!(a.width(), 8);
        assert_eq!(d.signal("b"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_input_panics() {
        let mut d = Design::new("t");
        d.input("a", 8);
        d.input("a", 8);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 bits")]
    fn oversized_constant_panics() {
        let mut d = Design::new("t");
        d.lit(0x1F, 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_add_panics() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let b = d.input("b", 4);
        d.add(a, b);
    }

    #[test]
    fn comparison_results_are_one_bit() {
        let mut d = Design::new("t");
        let a = d.input("a", 16);
        let b = d.input("b", 16);
        assert_eq!(d.eq(a, b).width(), 1);
        assert_eq!(d.lt(a, b).width(), 1);
        assert_eq!(d.ge(a, b).width(), 1);
    }

    #[test]
    fn slice_and_concat_widths() {
        let mut d = Design::new("t");
        let a = d.input("a", 16);
        let lo = d.slice(a, 0, 8);
        let hi = d.slice(a, 8, 8);
        assert_eq!(lo.width(), 8);
        let back = d.concat(hi, lo);
        assert_eq!(back.width(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        d.slice(a, 4, 8);
    }

    #[test]
    fn zext_noop_at_same_width() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let same = d.zext(a, 8);
        assert_eq!(same, a);
        let wide = d.zext(a, 12);
        assert_eq!(wide.width(), 12);
    }

    #[test]
    #[should_panic(expected = "driven twice")]
    fn double_drive_panics() {
        let mut d = Design::new("t");
        let slot = d.reg_slot("r", 4, 0);
        let q = slot.q;
        let one = d.lit(1, 4);
        let next = d.add(q, one);
        let slot2 = RegSlot { node: slot.node, q };
        d.drive_reg(slot, next);
        d.drive_reg(slot2, next);
    }

    #[test]
    fn stats_counts_resources() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        let b = d.input("b", 8);
        let sum = d.add(a, b); // 48 gates
        let r = d.reg("r", sum); // 8 FFs
        d.expose_output("r", r);
        let mem = d.memory("m", 256, 16); // 4096 RAM bits
        let _ = mem;
        let s = d.stats();
        assert_eq!(s.gates, 48);
        assert_eq!(s.flip_flops, 8);
        assert_eq!(s.ram_bits, 4096);
        assert_eq!(s.io_pins, 8 + 8 + 8);
    }

    #[test]
    fn stats_by_scope_breaks_down() {
        let mut d = Design::new("t");
        let a = d.input("a", 8);
        d.scoped("alu", |d| {
            let b = d.lit(1, 8);
            d.add(a, b)
        });
        let scopes = d.stats_by_scope();
        let alu = scopes.iter().find(|(n, _)| n == "alu").unwrap();
        assert_eq!(alu.1.gates, 48);
        let top = scopes.iter().find(|(n, _)| n.is_empty()).unwrap();
        assert_eq!(top.1.io_pins, 8);
    }

    #[test]
    fn rom_rejects_oversized_words() {
        let mut d = Design::new("t");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.rom("r", 4, &[0xFF]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn structural_bytes_is_deterministic_and_sensitive() {
        let build = |k: u64| {
            let mut d = Design::new("t");
            let a = d.input("a", 8);
            let c = d.lit(k, 8);
            let s = d.add(a, c);
            d.expose_output("s", s);
            d.structural_bytes()
        };
        assert_eq!(build(3), build(3));
        assert_ne!(build(3), build(4));
    }

    #[test]
    fn mem_accessors() {
        let mut d = Design::new("t");
        let m = d.memory("m", 512, 36);
        assert_eq!(d.mem_words(m), 512);
        assert_eq!(d.mem_width(m), 36);
    }

    /// A reusable child: a saturating byte accumulator with enable.
    fn child_acc() -> Design {
        let mut c = Design::new("acc8");
        let x = c.input("x", 8);
        let en = c.input("en", 1);
        let slot = c.reg_slot("acc", 8, 0);
        let q = slot.q;
        let sum = c.add_sat(q, x);
        c.set_reg_controls(&slot, Some(en), None);
        c.drive_reg(slot, sum);
        c.expose_output("total", q);
        c
    }

    #[test]
    fn instantiate_runs_the_child_logic() {
        let child = child_acc();
        let mut p = Design::new("parent");
        let data = p.input("data", 8);
        let en = p.high();
        let outs = p.instantiate(&child, "u0", &[("x", data), ("en", en)]);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "total");
        p.expose_output("sum", outs[0].1);
        let mut sim = crate::sim::Sim::new(&p);
        for v in [10u64, 20, 30] {
            sim.set("data", v);
            sim.step();
        }
        assert_eq!(sim.get("sum"), 60);
        // The child's internals are visible under the instance prefix.
        assert_eq!(sim.get("u0.total"), 60);
    }

    #[test]
    fn two_instances_are_independent() {
        let child = child_acc();
        let mut p = Design::new("parent");
        let a = p.input("a", 8);
        let b = p.input("b", 8);
        let en = p.high();
        let oa = p.instantiate(&child, "ua", &[("x", a), ("en", en)]);
        let ob = p.instantiate(&child, "ub", &[("x", b), ("en", en)]);
        p.expose_output("sa", oa[0].1);
        p.expose_output("sb", ob[0].1);
        let mut sim = crate::sim::Sim::new(&p);
        sim.set("a", 5);
        sim.set("b", 7);
        sim.run(3);
        assert_eq!(sim.get("sa"), 15);
        assert_eq!(sim.get("sb"), 21);
    }

    #[test]
    fn instantiated_memory_is_private() {
        let mut child = Design::new("mem_child");
        let addr = child.input("addr", 4);
        let data = child.input("data", 8);
        let we = child.input("we", 1);
        let m = child.memory("ram", 16, 8);
        child.write_port(m, addr, data, we);
        let rd = child.read_async(m, addr);
        child.expose_output("rd", rd);

        let mut p = Design::new("parent");
        let addr = p.input("addr", 4);
        let data = p.input("data", 8);
        let we = p.input("we", 1);
        let o1 = p.instantiate(&child, "m0", &[("addr", addr), ("data", data), ("we", we)]);
        let zero = p.lit(0, 8);
        let never = p.low();
        let o2 = p.instantiate(
            &child,
            "m1",
            &[("addr", addr), ("data", zero), ("we", never)],
        );
        p.expose_output("rd0", o1[0].1);
        p.expose_output("rd1", o2[0].1);
        let mut sim = crate::sim::Sim::new(&p);
        sim.set("addr", 3);
        sim.set("data", 42);
        sim.set("we", 1);
        sim.step();
        assert_eq!(sim.get("rd0"), 42, "instance m0 wrote");
        assert_eq!(sim.get("rd1"), 0, "instance m1 untouched");
    }

    #[test]
    fn instance_equals_monolithic_stats() {
        let child = child_acc();
        let child_stats = child.stats();
        let mut p = Design::new("parent");
        let x = p.input("x", 8);
        let en = p.high();
        p.instantiate(&child, "u", &[("x", x), ("en", en)]);
        let s = p.stats();
        // Parent adds only its own input pins; gates/FFs are the child's.
        assert_eq!(s.gates, child_stats.gates);
        assert_eq!(s.flip_flops, child_stats.flip_flops);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn instantiate_checks_binding_widths() {
        let child = child_acc();
        let mut p = Design::new("parent");
        let narrow = p.input("n", 4);
        let en = p.high();
        p.instantiate(&child, "u", &[("x", narrow), ("en", en)]);
    }

    #[test]
    #[should_panic(expected = "left unbound")]
    fn instantiate_requires_all_inputs() {
        let child = child_acc();
        let mut p = Design::new("parent");
        let x = p.input("x", 8);
        p.instantiate(&child, "u", &[("x", x)]);
    }

    #[test]
    fn inputs_and_outputs_listing() {
        let mut d = Design::new("t");
        let a = d.input("a", 3);
        let b = d.input("b", 5);
        let c = d.concat(a, b);
        d.expose_output("c", c);
        assert_eq!(d.inputs(), vec![("a".into(), 3), ("b".into(), 5)]);
        assert_eq!(d.output_ports(), vec![("c".into(), 8)]);
    }
}
