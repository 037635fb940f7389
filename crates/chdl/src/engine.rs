//! The compiled execution engine.
//!
//! At [`Sim`](crate::sim::Sim) construction the topologically-sorted netlist
//! is lowered into a flat **struct-of-arrays micro-op stream**: one `u8`
//! opcode per combinational node plus pre-resolved operand value-indices and
//! precomputed width masks. The hot loop is a tight index-driven sweep over
//! parallel arrays — no `String` names, no enum matching on `Node`, no
//! pointer chasing into the netlist.
//!
//! On top of the dense sweep the engine maintains **input-cone level sets**
//! for incremental re-evaluation: every op knows its logic depth, and each
//! node knows which ops consume it (a CSR adjacency). `set()` marks only the
//! affected cone dirty, and `eval()` drains per-level dirty queues in depth
//! order, pruning propagation wherever a recomputed value is unchanged. The
//! common case in the TRT/DAQ pipelines — one port toggling per cycle —
//! touches a handful of ops instead of the whole graph.
//!
//! The engine lowers the netlist exactly as elaborated: no netlist-level
//! pass runs inside `Sim::new` (netlist optimization is the explicit
//! `Design::optimized()` step, taken before construction), so the
//! peephole pass A below is the only constant folder on the lowering
//! path. The lowered stream is run through a **peephole + superop fusion
//! pass** (`fuse` in [`EngineConfig`]): constant inputs fold into `op_imm`
//! immediates, single-consumer producers are absorbed into their consumer
//! as fused superops (`NAND`, `AND3`, `MUX_EQI`, `REPACK`, …) executed as
//! one dispatch, complete select trees collapse into one `SELECT` lookup,
//! and unconsumed dsts are elided. With **adaptive sweeps** on
//! (`adaptive` in [`EngineConfig`], the default) a dense dirty population
//! switches the engine from per-op queue bookkeeping to straight-line
//! sweeps: a fully queued wide level cascades into a sweep of everything
//! below it, and a half-queued wide level is swept with change detection.
//! Every level is evaluated in one partition, in stream order.
//!
//! The same machinery makes clock edges incremental: committing a register
//! or a memory write marks only the consuming cone dirty, so a design where
//! a fraction of the state toggles per cycle (the TRT histogrammer: one
//! counter word out of a 64-lane bank) re-executes a handful of ops per
//! edge. [`CompiledEngine::run_batch`] is the fused fast path used by
//! `Sim::run`/`Sim::run_batch`: eval → sample → write → commit per cycle,
//! entirely inside the engine, with **zero per-edge heap allocation** — a
//! persistent scratch buffer holds sampled state and the dirty queues reach
//! a steady-state capacity that is reused across edges.
//!
//! The stream runs as **direct-threaded code**: every surviving micro-op
//! is specialized into a boxed closure with its opcode, operand slots,
//! masks, shifts and immediates captured as constants (no per-op field
//! loads, no opcode `match`), and the closures are chained into
//! straight-line per-level blocks that the sweep paths execute back to
//! back. The program is built once, at lowering time, and kept across
//! backdoor memory pokes: no closure or block captures memory contents,
//! they read the banks at call time. Only a clone starts without one and
//! builds it on its first eval. A compile ledger (compiles, blocks built,
//! closures specialized, compile time, evals run) is reported in
//! [`EngineStats`].
//!
//! The tree-walking interpreter in `sim.rs` is retained as the reference
//! oracle (it shares the lowering and scalar-execution helpers below, so
//! every opcode has a single source of truth); `tests/engine_equiv.rs`
//! co-simulates both on random netlists.

use crate::netlist::{node_width, BinOp, Node, UnOp, WritePortDecl};
use crate::signal::mask;
use std::collections::HashMap;

/// Operand slot meaning "absent" (e.g. a register without an enable).
const NONE: u32 = u32::MAX;

// Opcodes of the micro-op stream. One byte each; the dispatch in
// `exec_scalar` compiles to a dense jump table.
const OP_NOT: u8 = 0;
const OP_RED_AND: u8 = 1;
const OP_RED_OR: u8 = 2;
const OP_RED_XOR: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;
const OP_XOR: u8 = 6;
const OP_ADD: u8 = 7;
const OP_SUB: u8 = 8;
const OP_MUL: u8 = 9;
const OP_EQ: u8 = 10;
const OP_NE: u8 = 11;
const OP_LT: u8 = 12;
const OP_LE: u8 = 13;
const OP_SHL: u8 = 14;
const OP_SHR: u8 = 15;
const OP_MUX: u8 = 16;
const OP_SLICE: u8 = 17;
const OP_CONCAT: u8 = 18;
const OP_READ_ASYNC: u8 = 19;
// ---- fused superops (emitted only by the fusion pass) ----
/// `!(a & b) & imm`
const OP_NAND: u8 = 20;
/// `!(a | b) & imm`
const OP_NOR: u8 = 21;
/// `!(a ^ b) & imm`
const OP_XNOR: u8 = 22;
/// `a & !b & imm` (imm is the absorbed NOT's mask)
const OP_ANDN: u8 = 23;
/// `a & b & c`
const OP_AND3: u8 = 24;
/// `a | b | c`
const OP_OR3: u8 = 25;
/// `a ^ b ^ c`
const OP_XOR3: u8 = 26;
/// `a & imm`
const OP_AND_IMM: u8 = 27;
/// `a | imm`
const OP_OR_IMM: u8 = 28;
/// `a ^ imm`
const OP_XOR_IMM: u8 = 29;
/// `(a + imm) & mask(c)` — subtract-constant folds in via two's complement
const OP_ADD_IMM: u8 = 30;
/// `a == imm`
const OP_EQ_IMM: u8 = 31;
/// `a != imm`
const OP_NE_IMM: u8 = 32;
/// `if a == imm { b } else { c }` — compare-and-select
const OP_MUX_EQI: u8 = 33;
/// `(a << c) & imm`
const OP_SHL_IMM: u8 = 34;
/// `((a>>l1 & mask(w1)) << w2) | (a>>l2 & mask(w2))` with `l1|l2<<8|w1<<16|w2<<24`
/// packed into `op_c` — a SLICE+CONCAT re-pack in one dispatch.
const OP_REPACK: u8 = 35;
/// `if (a >> imm) & 1 { b } else { c }` — a mux whose select was a 1-bit
/// slice (the shape every balanced select tree is built from).
const OP_MUX_BIT: u8 = 36;
/// `a & ((b >> c) & imm)` — an AND with an absorbed bit-extract on one side.
const OP_ANDSHR: u8 = 37;
/// `(((a << s1) | b) << s2) | c` with `s1|s2<<8` packed into `imm` — two
/// CONCATs of a left-fold `cat` chain in one dispatch.
const OP_CAT3: u8 = 38;
/// `if a != 0 { (b + imm) & mask(c) } else { b }` — a guarded counter
/// increment (mux whose taken arm adds a constant to the other arm).
const OP_INC_IF: u8 = 39;
/// `vals[sel_tab[c + ((a >> b) & imm)]]` — a complete balanced `MUX_BIT`
/// select tree collapsed into one table-lookup dispatch. `b` is the
/// selector shift (0 for trees bottoming out at bit 0), `c` indexes the
/// first of `imm + 1` leaf node ids in the engine's `sel_tab` side table.
/// Never reaches `exec_scalar`: the threaded program gathers it through a
/// closure that owns a copy of its leaf table.
const OP_SELECT: u8 = 40;

/// Mnemonic for an opcode (superop histograms, diagnostics).
fn op_name(code: u8) -> &'static str {
    match code {
        OP_NOT => "not",
        OP_RED_AND => "red_and",
        OP_RED_OR => "red_or",
        OP_RED_XOR => "red_xor",
        OP_AND => "and",
        OP_OR => "or",
        OP_XOR => "xor",
        OP_ADD => "add",
        OP_SUB => "sub",
        OP_MUL => "mul",
        OP_EQ => "eq",
        OP_NE => "ne",
        OP_LT => "lt",
        OP_LE => "le",
        OP_SHL => "shl",
        OP_SHR => "shr",
        OP_MUX => "mux",
        OP_SLICE => "slice",
        OP_CONCAT => "concat",
        OP_READ_ASYNC => "read_async",
        OP_NAND => "nand",
        OP_NOR => "nor",
        OP_XNOR => "xnor",
        OP_ANDN => "andn",
        OP_AND3 => "and3",
        OP_OR3 => "or3",
        OP_XOR3 => "xor3",
        OP_AND_IMM => "and_imm",
        OP_OR_IMM => "or_imm",
        OP_XOR_IMM => "xor_imm",
        OP_ADD_IMM => "add_imm",
        OP_EQ_IMM => "eq_imm",
        OP_NE_IMM => "ne_imm",
        OP_MUX_EQI => "mux_eqi",
        OP_SHL_IMM => "shl_imm",
        OP_REPACK => "repack",
        OP_MUX_BIT => "mux_bit",
        OP_ANDSHR => "andshr",
        OP_CAT3 => "cat3",
        OP_INC_IF => "inc_if",
        OP_SELECT => "select",
        _ => "invalid",
    }
}

#[inline(always)]
fn mask64(w: u32) -> u64 {
    mask(w as u8)
}

/// Unpack an `OP_REPACK` descriptor: `(l1, l2, w2, m1, m2)`.
#[inline(always)]
fn repack_parts(c: u32) -> (u32, u32, u32, u64, u64) {
    let (l1, l2) = (c & 0xff, (c >> 8) & 0xff);
    let (w1, w2) = ((c >> 16) & 0xff, c >> 24);
    (l1, l2, w2, mask64(w1), mask64(w2))
}

// ---- public configuration & statistics -----------------------------------

/// Knobs controlling how a design is lowered onto the compiled engine.
///
/// The default (`fuse` and `adaptive` on) is what `Sim::new` uses;
/// `Sim::with_config` takes any other configuration as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Run the peephole + superop fusion pass over the lowered stream.
    pub fuse: bool,
    /// Adaptive level sweeps: a wide level whose dirty population is dense
    /// is swept straight-line instead of drained per op (a fully queued
    /// one cascades through every deeper level). Off, every eval drains
    /// the per-level dirty queues op by op.
    pub adaptive: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            fuse: true,
            adaptive: true,
        }
    }
}

impl EngineConfig {
    /// Fusion on, adaptive sweeps off — the serial fused engine (a bench
    /// baseline).
    pub fn serial() -> Self {
        EngineConfig {
            fuse: true,
            adaptive: false,
        }
    }

    /// Fusion and adaptive sweeps off — the raw lowered stream (benchmark
    /// baseline).
    pub fn unfused() -> Self {
        EngineConfig {
            fuse: false,
            adaptive: false,
        }
    }
}

/// Stream statistics reported by the compiled engine after lowering —
/// exposed through `Sim::engine_stats` and tracked in the bench artifacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Micro-ops lowered from the netlist before any transformation.
    pub ops_lowered: usize,
    /// Micro-ops in the final stream after fusion / elision.
    pub ops_final: usize,
    /// Ops whose inputs were all compile-time constants, folded away.
    pub consts_folded: usize,
    /// Ops rewritten in place to an immediate form (`x & imm`, `a + imm`…).
    pub imm_rewrites: usize,
    /// Producer ops absorbed into a consuming superop.
    pub ops_fused: usize,
    /// Dead ops elided (no surviving consumer, not externally referenced).
    pub ops_elided: usize,
    /// Logic levels in the final stream.
    pub levels: usize,
    /// Threaded-program builds: the one at lowering time, plus one on a
    /// clone's first eval (a clone starts without a program).
    pub compiles: usize,
    /// Straight-line per-level blocks built across all compiles.
    pub blocks_built: usize,
    /// Per-op specialized closures built across all compiles.
    pub closures_specialized: usize,
    /// Wall-clock nanoseconds spent building closure chains. The one
    /// non-deterministic ledger field — determinism fingerprints must
    /// exclude it.
    pub compile_ns: u64,
    /// Evals that did work: every one runs the threaded program.
    pub evals_threaded: u64,
    /// Always 0: the per-op `match` dispatch tier is gone. The field is
    /// kept because the served-path benchmark still reads it.
    pub evals_match: u64,
    /// Final-stream population of each fused superop mnemonic.
    pub superops: Vec<(&'static str, usize)>,
    /// Full final-stream opcode histogram (superops and plain ops alike),
    /// sorted by descending count.
    pub opcodes: Vec<(&'static str, usize)>,
    /// Netlist nodes handed to lowering: the design's node count, since
    /// the engine lowers the netlist exactly as elaborated (run
    /// `Design::optimized()` first to shrink it). The name is kept from
    /// when a netlist pass ran inside `Sim::new` because the served-path
    /// benchmark reports this field as `chdl.netopt_nodes_after`.
    pub netopt_nodes_after: usize,
}

// ---- shared lowering & scalar execution ----------------------------------
//
// These two helpers are the single source of truth for opcode semantics:
// the compiled engine, the tree-walking interpreter in `sim.rs`, the
// on-demand observability path for fused-away nodes, and the netlist
// optimizer's constant folder (`nir::ConstFold`) all lower and execute
// through them.

/// One lowered micro-op, before it is appended to the stream.
pub(crate) struct LoweredOp {
    pub code: u8,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub imm: u64,
}

/// Lower one combinational node. Returns `None` for value sources (inputs,
/// constants) and state nodes (registers, sync read ports), which emit no
/// op.
pub(crate) fn lower_op(nodes: &[Node], idx: u32) -> Option<LoweredOp> {
    let (code, a, b, c, imm) = match &nodes[idx as usize] {
        Node::Unop { op, a, width } => {
            let aw = node_width(&nodes[*a as usize]);
            match op {
                UnOp::Not => (OP_NOT, *a, NONE, NONE, mask(*width)),
                // RED_AND compares against the operand's all-ones value.
                UnOp::ReduceAnd => (OP_RED_AND, *a, NONE, NONE, mask(aw)),
                UnOp::ReduceOr => (OP_RED_OR, *a, NONE, NONE, 0),
                UnOp::ReduceXor => (OP_RED_XOR, *a, NONE, NONE, 0),
            }
        }
        Node::Binop { op, a, b, width } => {
            let m = mask(*width);
            let aw = node_width(&nodes[*a as usize]) as u32;
            match op {
                BinOp::And => (OP_AND, *a, *b, NONE, 0),
                BinOp::Or => (OP_OR, *a, *b, NONE, 0),
                BinOp::Xor => (OP_XOR, *a, *b, NONE, 0),
                BinOp::Add => (OP_ADD, *a, *b, NONE, m),
                BinOp::Sub => (OP_SUB, *a, *b, NONE, m),
                BinOp::Mul => (OP_MUL, *a, *b, NONE, m),
                BinOp::Eq => (OP_EQ, *a, *b, NONE, 0),
                BinOp::Ne => (OP_NE, *a, *b, NONE, 0),
                BinOp::Lt => (OP_LT, *a, *b, NONE, 0),
                BinOp::Le => (OP_LE, *a, *b, NONE, 0),
                // Shifts also carry the operand width for the ≥width check.
                BinOp::Shl => (OP_SHL, *a, *b, aw, m),
                BinOp::Shr => (OP_SHR, *a, *b, aw, 0),
            }
        }
        Node::Mux { sel, t, f, .. } => (OP_MUX, *sel, *t, *f, 0),
        Node::Slice { a, lo, width } => (OP_SLICE, *a, NONE, *lo as u32, mask(*width)),
        Node::Concat { hi, lo, .. } => {
            let lo_w = node_width(&nodes[*lo as usize]) as u32;
            (OP_CONCAT, *hi, *lo, lo_w, 0)
        }
        Node::ReadPort {
            mem,
            addr,
            sync: false,
            ..
        } => (OP_READ_ASYNC, *addr, NONE, *mem, 0),
        Node::Input { .. }
        | Node::Const { .. }
        | Node::Reg { .. }
        | Node::ReadPort { sync: true, .. } => return None,
    };
    Some(LoweredOp { code, a, b, c, imm })
}

/// Execute one micro-op given its operand fetch and memory read closures.
/// `val` is called once per value operand actually consumed; `mem` is
/// called as `mem(mem_index, address)` (out-of-range reads return 0 at the
/// caller's discretion).
#[inline(always)]
pub(crate) fn exec_scalar(
    code: u8,
    a: u32,
    b: u32,
    c: u32,
    imm: u64,
    val: &mut impl FnMut(u32) -> u64,
    mem: &mut impl FnMut(u32, u64) -> u64,
) -> u64 {
    match code {
        OP_NOT => !val(a) & imm,
        OP_RED_AND => u64::from(val(a) == imm),
        OP_RED_OR => u64::from(val(a) != 0),
        OP_RED_XOR => u64::from(val(a).count_ones() & 1 == 1),
        OP_AND => val(a) & val(b),
        OP_OR => val(a) | val(b),
        OP_XOR => val(a) ^ val(b),
        OP_ADD => val(a).wrapping_add(val(b)) & imm,
        OP_SUB => val(a).wrapping_sub(val(b)) & imm,
        OP_MUL => val(a).wrapping_mul(val(b)) & imm,
        OP_EQ => u64::from(val(a) == val(b)),
        OP_NE => u64::from(val(a) != val(b)),
        OP_LT => u64::from(val(a) < val(b)),
        OP_LE => u64::from(val(a) <= val(b)),
        OP_SHL => {
            let sh = val(b);
            if sh >= c as u64 {
                0
            } else {
                (val(a) << sh) & imm
            }
        }
        OP_SHR => {
            let sh = val(b);
            if sh >= c as u64 {
                0
            } else {
                val(a) >> sh
            }
        }
        OP_MUX => {
            if val(a) != 0 {
                val(b)
            } else {
                val(c)
            }
        }
        OP_SLICE => (val(a) >> c) & imm,
        OP_CONCAT => (val(a) << c) | val(b),
        OP_READ_ASYNC => {
            let addr = val(a);
            mem(c, addr)
        }
        OP_NAND => !(val(a) & val(b)) & imm,
        OP_NOR => !(val(a) | val(b)) & imm,
        OP_XNOR => !(val(a) ^ val(b)) & imm,
        OP_ANDN => val(a) & !val(b) & imm,
        OP_AND3 => val(a) & val(b) & val(c),
        OP_OR3 => val(a) | val(b) | val(c),
        OP_XOR3 => val(a) ^ val(b) ^ val(c),
        OP_AND_IMM => val(a) & imm,
        OP_OR_IMM => val(a) | imm,
        OP_XOR_IMM => val(a) ^ imm,
        OP_ADD_IMM => val(a).wrapping_add(imm) & mask64(c),
        OP_EQ_IMM => u64::from(val(a) == imm),
        OP_NE_IMM => u64::from(val(a) != imm),
        OP_MUX_EQI => {
            if val(a) == imm {
                val(b)
            } else {
                val(c)
            }
        }
        OP_SHL_IMM => (val(a) << c) & imm,
        OP_REPACK => {
            let (l1, l2, w2, m1, m2) = repack_parts(c);
            (((val(a) >> l1) & m1) << w2) | ((val(b) >> l2) & m2)
        }
        OP_MUX_BIT => {
            if (val(a) >> imm) & 1 != 0 {
                val(b)
            } else {
                val(c)
            }
        }
        OP_ANDSHR => val(a) & ((val(b) >> c) & imm),
        OP_CAT3 => {
            let (s1, s2) = (imm & 0xff, (imm >> 8) & 0xff);
            (((val(a) << s1) | val(b)) << s2) | val(c)
        }
        OP_INC_IF => {
            let q = val(b);
            if val(a) != 0 {
                q.wrapping_add(imm) & mask64(c)
            } else {
                q
            }
        }
        _ => unreachable!("invalid opcode"),
    }
}

/// Visit the value-operand node indices of an op given its fields.
#[inline]
fn visit_code_operands(code: u8, a: u32, b: u32, c: u32, mut f: impl FnMut(u32)) {
    f(a);
    match code {
        OP_AND | OP_OR | OP_XOR | OP_ADD | OP_SUB | OP_MUL | OP_EQ | OP_NE | OP_LT | OP_LE
        | OP_SHL | OP_SHR | OP_CONCAT | OP_NAND | OP_NOR | OP_XNOR | OP_ANDN | OP_REPACK
        | OP_ANDSHR | OP_INC_IF => f(b),
        OP_MUX | OP_MUX_EQI | OP_MUX_BIT | OP_AND3 | OP_OR3 | OP_XOR3 | OP_CAT3 => {
            f(b);
            f(c);
        }
        _ => {}
    }
}

// ---- adaptive evaluation tuning ------------------------------------------

/// A level whose entire op range is queued cascades into straight-line
/// execution of everything at and below it, skipping queue bookkeeping —
/// but only when the range is big enough for bookkeeping to matter.
const CASCADE_MIN_SPAN: usize = 128;
/// A level at least half-queued is swept densely (with change detection)
/// instead of drained per-op, when at least this many ops wide.
const DENSE_MIN_SPAN: usize = 64;
/// Minimum same-opcode run length that earns a specialized run block;
/// shorter segments are merged into packed-dispatch tail blocks (a
/// singleton "loop" would cost more in block-call overhead than its
/// hoisted dispatch saves).
const RUN_MIN_LEN: usize = 8;
/// Minimum length of a serial same-opcode dependency chain (each op
/// consuming the previous op's destination in the same operand position)
/// that earns a dedicated chain run — a loop carrying the chained value
/// in a register with the opcode dispatch hoisted out entirely.
const CHAIN_MIN: usize = 4;

// ---- direct-threaded dispatch (compiled closure chains) -------------------

/// Borrowed execution context handed to threaded per-level blocks: the
/// per-node value array plus the memory banks, both owned by `Sim`.
pub(crate) struct ExecState<'a> {
    /// Per-node values.
    pub vals: &'a mut [u64],
    /// Memory contents, one `Vec` per memory.
    pub mems: &'a [Vec<u64>],
}

/// One compiled op: a pure compute closure specialized to its opcode with
/// operand slots, masks, shifts and immediates captured as constants. The
/// *caller* stores the result (and runs change detection where the path
/// needs it), so one closure serves the incremental and dense paths
/// alike. `Send` keeps `Sim` movable into the runtime's per-board worker
/// thread, which owns its ACB's FPGAs; no `&Sim` is shared between
/// threads, so the closures need not be `Sync`.
type OpFn = Box<dyn Fn(&[u64], &[Vec<u64>]) -> u64 + Send>;

/// One compiled run block: straight-line execution of a same-opcode op
/// run inside one level, storing every destination unconditionally (the
/// raw-sweep contract). The opcode match is hoisted outside the run's
/// loop, so the loop body is branch-free specialized code.
type BlockFn = Box<dyn Fn(&mut ExecState) + Send>;

/// The threaded program for one compiled stream: per-op closures for the
/// incremental path, plus the dense sweep plan — ops of
/// each level sorted by opcode and chained into *run blocks* (one
/// specialized loop per same-opcode run, the "superinstruction" form of
/// direct threading). Sorting within a level is safe: levelization
/// guarantees same-level ops never consume each other's destinations.
struct ThreadedProgram {
    /// One compute closure per op, in stream (level) order.
    ops: Vec<OpFn>,
    /// Run blocks, level-major; each executes one same-opcode run.
    runs: Vec<BlockFn>,
    /// Level `l`'s run blocks are `runs[run_start[l]..run_start[l + 1]]`.
    run_start: Vec<u32>,
}

impl ThreadedProgram {
    /// Straight-line execute every level from `from` down, no bookkeeping:
    /// the per-level blocks run back to back with no opcode dispatch, no
    /// field loads, and no change detection.
    fn exec_levels_raw(&self, from: usize, vals: &mut [u64], mems: &[Vec<u64>]) {
        let mut st = ExecState { vals, mems };
        for run in &self.runs[self.run_start[from] as usize..] {
            run(&mut st);
        }
    }
}

/// Cache slot for the compiled scalar program. Cloning an engine (design
/// forks) drops the program — the clone builds its own on its first eval
/// — and `Debug` prints only presence, keeping `CompiledEngine`'s derives
/// intact.
#[derive(Default)]
struct ProgramCache(Option<ThreadedProgram>);

impl Clone for ProgramCache {
    fn clone(&self) -> Self {
        ProgramCache(None)
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProgramCache")
            .field(&self.0.is_some())
            .finish()
    }
}

/// Build a one-operand compute closure with the operand slot captured.
fn th1(a: u32, f: impl Fn(u64) -> u64 + Send + 'static) -> OpFn {
    let a = a as usize;
    Box::new(move |v, _| f(v[a]))
}

/// Build a two-operand compute closure with both slots captured.
fn th2(a: u32, b: u32, f: impl Fn(u64, u64) -> u64 + Send + 'static) -> OpFn {
    let (a, b) = (a as usize, b as usize);
    Box::new(move |v, _| f(v[a], v[b]))
}

/// Build a three-operand compute closure with all slots captured.
fn th3(a: u32, b: u32, c: u32, f: impl Fn(u64, u64, u64) -> u64 + Send + 'static) -> OpFn {
    let (a, b, c) = (a as usize, b as usize, c as usize);
    Box::new(move |v, _| f(v[a], v[b], v[c]))
}

// Run-block builders: each takes the packed per-op slot/parameter columns
// of one same-opcode run and a pure element function, and returns a block
// whose loop inlines `f` — the opcode dispatch happened at compile time,
// so the loop body carries no match and loads no opcode. Parameter
// columns an element function ignores are dead loads the optimizer
// removes after inlining, so the three shapes cover every parameterized
// opcode without per-opcode plumbing.

/// Whether every op in the run reads the same slot here — a *broadcast*
/// column (one fanned-out net feeding the whole run, e.g. a hit address
/// driving every lane's decoder). The compile-time check lets the run
/// loop hoist that operand's load out entirely.
fn broadcast(col: &[u32]) -> bool {
    col.windows(2).all(|w| w[0] == w[1])
}

/// Serial chain run: `acc = f(acc, v[y[k]], v[z[k]], p[k]); v[dst[k]] = acc`,
/// seeded with `acc = v[seed]`. The chained value never round-trips
/// through the value array — each hop forwards it in a register, cutting
/// the store-to-load latency out of the dependency chain that makes
/// serial reductions the critical path of a sweep.
fn ch3(
    seed: u32,
    dst: Vec<u32>,
    y: Vec<u32>,
    z: Vec<u32>,
    p: Vec<u64>,
    f: impl Fn(u64, u64, u64, u64) -> u64 + Send + 'static,
) -> BlockFn {
    let seed = seed as usize;
    Box::new(move |st: &mut ExecState| {
        let v = &mut *st.vals;
        let mut acc = v[seed];
        for ((&d, &y), (&z, &p)) in dst.iter().zip(&y).zip(z.iter().zip(&p)) {
            acc = f(acc, v[y as usize], v[z as usize], p);
            v[d as usize] = acc;
        }
    })
}

/// One-operand run: `dst[k] = f(v[a[k]], p[k], q[k])`. A broadcast `a`
/// column is hoisted to a single load before the loop.
fn rn1(
    dst: Vec<u32>,
    a: Vec<u32>,
    p: Vec<u64>,
    q: Vec<u64>,
    f: impl Fn(u64, u64, u64) -> u64 + Send + 'static,
) -> BlockFn {
    if broadcast(&a) {
        let a0 = a[0] as usize;
        return Box::new(move |st: &mut ExecState| {
            let v = &mut *st.vals;
            let x = v[a0];
            for (&d, (&p, &q)) in dst.iter().zip(p.iter().zip(&q)) {
                v[d as usize] = f(x, p, q);
            }
        });
    }
    Box::new(move |st: &mut ExecState| {
        let v = &mut *st.vals;
        for ((&d, &a), (&p, &q)) in dst.iter().zip(&a).zip(p.iter().zip(&q)) {
            v[d as usize] = f(v[a as usize], p, q);
        }
    })
}

/// Two-operand run: `dst[k] = f(v[a[k]], v[b[k]], p[k], q[k])`. Broadcast
/// operand columns (either or both) are hoisted to single loads.
fn rn2(
    dst: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    p: Vec<u64>,
    q: Vec<u64>,
    f: impl Fn(u64, u64, u64, u64) -> u64 + Send + 'static,
) -> BlockFn {
    match (broadcast(&a), broadcast(&b)) {
        (true, true) => {
            let (a0, b0) = (a[0] as usize, b[0] as usize);
            Box::new(move |st: &mut ExecState| {
                let v = &mut *st.vals;
                let (x, y) = (v[a0], v[b0]);
                for (&d, (&p, &q)) in dst.iter().zip(p.iter().zip(&q)) {
                    v[d as usize] = f(x, y, p, q);
                }
            })
        }
        (true, false) => {
            let a0 = a[0] as usize;
            Box::new(move |st: &mut ExecState| {
                let v = &mut *st.vals;
                let x = v[a0];
                for ((&d, &b), (&p, &q)) in dst.iter().zip(&b).zip(p.iter().zip(&q)) {
                    v[d as usize] = f(x, v[b as usize], p, q);
                }
            })
        }
        (false, true) => {
            let b0 = b[0] as usize;
            Box::new(move |st: &mut ExecState| {
                let v = &mut *st.vals;
                let y = v[b0];
                for ((&d, &a), (&p, &q)) in dst.iter().zip(&a).zip(p.iter().zip(&q)) {
                    v[d as usize] = f(v[a as usize], y, p, q);
                }
            })
        }
        (false, false) => Box::new(move |st: &mut ExecState| {
            let v = &mut *st.vals;
            for ((&d, &a), (&b, (&p, &q))) in dst.iter().zip(&a).zip(b.iter().zip(p.iter().zip(&q)))
            {
                v[d as usize] = f(v[a as usize], v[b as usize], p, q);
            }
        }),
    }
}

/// Three-operand run: `dst[k] = f(v[a[k]], v[b[k]], v[c[k]], p[k], q[k])`.
fn rn3(
    dst: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    p: Vec<u64>,
    q: Vec<u64>,
    f: impl Fn(u64, u64, u64, u64, u64) -> u64 + Send + 'static,
) -> BlockFn {
    Box::new(move |st: &mut ExecState| {
        let v = &mut *st.vals;
        for ((&d, &a), (&b, (&c, (&p, &q)))) in dst
            .iter()
            .zip(&a)
            .zip(b.iter().zip(c.iter().zip(p.iter().zip(&q))))
        {
            v[d as usize] = f(v[a as usize], v[b as usize], v[c as usize], p, q);
        }
    })
}

/// The lowered form of one design: micro-op stream, level sets, consumer
/// adjacency and the state-commit plan. Operates on the `vals`/`mems`
/// storage owned by `Sim`.
#[derive(Debug, Clone)]
pub(crate) struct CompiledEngine {
    // ---- micro-op stream (struct of arrays, sorted by level) ----
    op_code: Vec<u8>,
    op_dst: Vec<u32>,
    op_a: Vec<u32>,
    op_b: Vec<u32>,
    /// Third operand / small auxiliary: mux else-branch, slice shift,
    /// concat lo-width, shift operand width, read-port memory index,
    /// repack descriptor.
    op_c: Vec<u32>,
    /// Precomputed mask or immediate (opcode-dependent).
    op_imm: Vec<u64>,
    op_level: Vec<u32>,
    /// Leaf node ids of collapsed select trees: an `OP_SELECT` op reads
    /// `sel_tab[op_c .. op_c + op_imm + 1]` as its lookup table.
    sel_tab: Vec<u32>,

    // ---- incremental re-evaluation ----
    /// Per-op "queued" flag (deduplicates queue pushes).
    op_dirty: Vec<bool>,
    /// Dirty op indices, one queue per logic level.
    level_queues: Vec<Vec<u32>>,
    /// Everything needs recomputing (initial state / after batch).
    full_dirty: bool,
    /// At least one queue is non-empty.
    any_dirty: bool,
    /// CSR: ops consuming each node's value (`cons_start[n]..cons_start[n+1]`).
    cons_start: Vec<u32>,
    cons: Vec<u32>,
    /// Async read-port ops per memory (recompute targets after pokes/writes).
    mem_cons: Vec<Vec<u32>>,

    // ---- adaptive evaluation ----
    /// Op-index boundary of each level: level `l` is
    /// `level_start[l]..level_start[l+1]` (len = levels + 1).
    level_start: Vec<u32>,
    /// Dense/cascade sweep heuristics enabled (`EngineConfig::adaptive`).
    adaptive: bool,

    // ---- direct-threaded dispatch ----
    /// Compiled scalar program: built at lowering time and kept across
    /// pokes; empty only in a clone that has not evaluated yet.
    threaded: ProgramCache,

    // ---- observability ----
    /// Whether `vals[node]` is kept current by the engine (sources, state,
    /// surviving op dsts, folded constants). Fused-away nodes are `false`
    /// and evaluated on demand by `Sim::get_signal`.
    computed: Vec<bool>,
    /// Compile-time constant comb nodes `(node, value)`; `Sim` seeds
    /// `vals` from this once after construction.
    folded: Vec<(u32, u64)>,
    stats: EngineStats,

    // ---- state-commit plan ----
    // Registers are grouped by (clr, en) presence so each sampling loop is
    // branch-free: `reg_kind_start` bounds the [plain, en-only, clr-only,
    // clr+en] runs within the reg_* arrays.
    reg_dst: Vec<u32>,
    reg_d: Vec<u32>,
    reg_en: Vec<u32>,
    reg_clr: Vec<u32>,
    reg_init: Vec<u64>,
    reg_kind_start: [usize; 5],
    /// Within each kind class, regs whose d/en/clr are produced by the
    /// state commit itself ("chained": shift-register shapes) come first
    /// and round-trip through `scratch`; regs from `reg_dir_start[k]` to
    /// the class end read only settled comb values and commit in a single
    /// direct pass — no sample/store/reload per edge.
    reg_dir_start: [usize; 4],
    sr_dst: Vec<u32>,
    sr_addr: Vec<u32>,
    sr_mem: Vec<u32>,
    wp_mem: Vec<u32>,
    wp_addr: Vec<u32>,
    wp_data: Vec<u32>,
    wp_we: Vec<u32>,
    /// Persistent sample buffer: one slot per register + sync read port.
    scratch: Vec<u64>,
}

/// Mutable working form of the op stream during compilation, before the
/// surviving ops are frozen into the SoA arrays.
struct WorkOps {
    code: Vec<u8>,
    dst: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    imm: Vec<u64>,
    level: Vec<u32>,
    killed: Vec<bool>,
    /// Leaf tables of collapsed select trees (frozen into `sel_tab`).
    tab: Vec<u32>,
}

impl WorkOps {
    fn visit_operands(&self, i: usize, mut f: impl FnMut(u32)) {
        if self.code[i] == OP_SELECT {
            f(self.a[i]);
            let start = self.c[i] as usize;
            for &leaf in &self.tab[start..start + self.imm[i] as usize + 1] {
                f(leaf);
            }
            return;
        }
        visit_code_operands(self.code[i], self.a[i], self.b[i], self.c[i], f);
    }
}

impl CompiledEngine {
    /// Lower a validated, topologically-sorted netlist. `order` is the
    /// combinational evaluation order produced by the simulator's Kahn
    /// sort; `state_nodes` are registers and synchronous read ports;
    /// `protected[n]` marks nodes referenced from outside the netlist
    /// (named signals, outputs) that fusion must leave observable.
    pub(crate) fn compile(
        nodes: &[Node],
        order: &[u32],
        state_nodes: &[u32],
        write_ports: &[WritePortDecl],
        mem_count: usize,
        protected: &[bool],
        config: EngineConfig,
    ) -> CompiledEngine {
        let n = nodes.len();

        // Logic depth per node: sources (inputs, consts, state) are level 0;
        // a combinational node is one deeper than its deepest operand.
        let mut node_level = vec![0u32; n];
        for &idx in order {
            let mut lvl = 0;
            for_each_operand(&nodes[idx as usize], |dep| {
                lvl = lvl.max(node_level[dep as usize]);
            });
            node_level[idx as usize] = lvl + 1;
        }

        // Emit ops in level order (stable within a level ⇒ still topological).
        let mut emit_order: Vec<u32> = order.to_vec();
        emit_order.sort_by_key(|&idx| node_level[idx as usize]);

        let mut w = WorkOps {
            code: Vec::with_capacity(emit_order.len()),
            dst: Vec::with_capacity(emit_order.len()),
            a: Vec::with_capacity(emit_order.len()),
            b: Vec::with_capacity(emit_order.len()),
            c: Vec::with_capacity(emit_order.len()),
            imm: Vec::with_capacity(emit_order.len()),
            level: Vec::with_capacity(emit_order.len()),
            killed: Vec::new(),
            tab: Vec::new(),
        };
        for &idx in &emit_order {
            if let Some(op) = lower_op(nodes, idx) {
                w.code.push(op.code);
                w.dst.push(idx);
                w.a.push(op.a);
                w.b.push(op.b);
                w.c.push(op.c);
                w.imm.push(op.imm);
                w.level.push(node_level[idx as usize] - 1);
            }
        }
        w.killed = vec![false; w.code.len()];

        let mut stats = EngineStats {
            ops_lowered: w.code.len(),
            netopt_nodes_after: n,
            ..EngineStats::default()
        };

        // Nodes the stream must keep observable / writable in `vals`:
        // named signals & outputs, plus everything the state-commit plan
        // reads directly.
        let mut ext_ref = protected.to_vec();
        for &idx in state_nodes {
            match &nodes[idx as usize] {
                Node::Reg { d, en, clr, .. } => {
                    ext_ref[*d as usize] = true;
                    if let Some(en) = en {
                        ext_ref[*en as usize] = true;
                    }
                    if let Some(clr) = clr {
                        ext_ref[*clr as usize] = true;
                    }
                }
                Node::ReadPort { addr, .. } => ext_ref[*addr as usize] = true,
                _ => unreachable!("non-state node in state_nodes"),
            }
        }
        for wp in write_ports {
            ext_ref[wp.addr as usize] = true;
            ext_ref[wp.data as usize] = true;
            ext_ref[wp.we as usize] = true;
        }

        let mut folded: Vec<(u32, u64)> = Vec::new();
        if config.fuse {
            fuse_stream(nodes, &mut w, &ext_ref, &mut folded, &mut stats);
        }

        // Freeze the surviving ops into the SoA stream.
        let survivors = w.killed.iter().filter(|&&k| !k).count();
        let mut eng = CompiledEngine {
            op_code: Vec::with_capacity(survivors),
            op_dst: Vec::with_capacity(survivors),
            op_a: Vec::with_capacity(survivors),
            op_b: Vec::with_capacity(survivors),
            op_c: Vec::with_capacity(survivors),
            op_imm: Vec::with_capacity(survivors),
            op_level: Vec::with_capacity(survivors),
            sel_tab: std::mem::take(&mut w.tab),
            op_dirty: Vec::new(),
            level_queues: Vec::new(),
            full_dirty: true,
            any_dirty: false,
            cons_start: Vec::new(),
            cons: Vec::new(),
            mem_cons: vec![Vec::new(); mem_count],
            level_start: Vec::new(),
            adaptive: config.adaptive,
            threaded: ProgramCache::default(),
            computed: Vec::new(),
            folded,
            stats,
            reg_dst: Vec::new(),
            reg_d: Vec::new(),
            reg_en: Vec::new(),
            reg_clr: Vec::new(),
            reg_init: Vec::new(),
            reg_kind_start: [0; 5],
            reg_dir_start: [0; 4],
            sr_dst: Vec::new(),
            sr_addr: Vec::new(),
            sr_mem: Vec::new(),
            wp_mem: Vec::new(),
            wp_addr: Vec::new(),
            wp_data: Vec::new(),
            wp_we: Vec::new(),
            scratch: Vec::new(),
        };
        for i in 0..w.code.len() {
            if w.killed[i] {
                continue;
            }
            eng.op_code.push(w.code[i]);
            eng.op_dst.push(w.dst[i]);
            eng.op_a.push(w.a[i]);
            eng.op_b.push(w.b[i]);
            eng.op_c.push(w.c[i]);
            eng.op_imm.push(w.imm[i]);
            eng.op_level.push(w.level[i]);
        }

        let level_count = eng
            .op_level
            .iter()
            .map(|&l| l as usize + 1)
            .max()
            .unwrap_or(0);
        eng.level_queues = vec![Vec::new(); level_count];
        eng.op_dirty = vec![false; eng.op_code.len()];

        // Level boundaries over the (level-sorted) final stream.
        eng.level_start = vec![0; level_count + 1];
        for &l in &eng.op_level {
            eng.level_start[l as usize + 1] += 1;
        }
        for l in 0..level_count {
            eng.level_start[l + 1] += eng.level_start[l];
        }

        // Observability: `vals[node]` stays current for everything except
        // the dst of a fused-away op. Sources (inputs, constants) appear
        // in `order` too but lower to no op — they carry their own value.
        // A node's slot stays current iff it carries its own value
        // (sources, constants, state) or the final stream produces it;
        // fused-away dsts are recomputed on demand by the owner.
        eng.computed = (0..n as u32)
            .map(|i| lower_op(nodes, i).is_none())
            .collect();
        for &dst in &eng.op_dst {
            eng.computed[dst as usize] = true;
        }
        for &(node, _) in &eng.folded {
            eng.computed[node as usize] = true;
        }

        // Consumer CSR: node → ops reading it (counting sort by operand).
        let mut counts = vec![0u32; n + 1];
        for i in 0..eng.op_code.len() {
            Self::op_operands(&eng, i, |dep| counts[dep as usize + 1] += 1);
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        eng.cons_start = counts;
        let mut cons = vec![0u32; *eng.cons_start.last().unwrap() as usize];
        let mut cursor = eng.cons_start.clone();
        for i in 0..eng.op_code.len() {
            Self::op_operands(&eng, i, |dep| {
                let slot = &mut cursor[dep as usize];
                cons[*slot as usize] = i as u32;
                *slot += 1;
            });
        }
        eng.cons = cons;

        // Async read-port ops grouped per memory.
        for i in 0..eng.op_code.len() {
            if eng.op_code[i] == OP_READ_ASYNC {
                eng.mem_cons[eng.op_c[i] as usize].push(i as u32);
            }
        }

        // State-commit plan: registers grouped by (clr, en) presence so the
        // per-cycle sampling loops are branch-free within each class.
        let mut by_kind: [Vec<u32>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &idx in state_nodes {
            match &nodes[idx as usize] {
                Node::Reg { en, clr, .. } => {
                    let kind = usize::from(clr.is_some()) * 2 + usize::from(en.is_some());
                    by_kind[kind].push(idx);
                }
                Node::ReadPort {
                    mem,
                    addr,
                    sync: true,
                    ..
                } => {
                    eng.sr_dst.push(idx);
                    eng.sr_addr.push(*addr);
                    eng.sr_mem.push(*mem);
                }
                _ => unreachable!("non-state node in state_nodes"),
            }
        }
        // Class order: plain, en-only, clr-only, clr+en. Within each class
        // chained regs come first (they must sample into scratch before any
        // commit), then the direct tail (single-pass commit).
        let mut is_state_dst = vec![false; n];
        for &idx in state_nodes {
            is_state_dst[idx as usize] = true;
        }
        let order_of = [0usize, 1, 2, 3];
        eng.reg_kind_start[0] = 0;
        for (slot, &kind) in order_of.iter().enumerate() {
            for pass in 0..2 {
                for &idx in &by_kind[kind] {
                    let Node::Reg {
                        d, en, clr, init, ..
                    } = &nodes[idx as usize]
                    else {
                        unreachable!()
                    };
                    let chained = is_state_dst[*d as usize]
                        || en.is_some_and(|e| is_state_dst[e as usize])
                        || clr.is_some_and(|c| is_state_dst[c as usize]);
                    if (pass == 0) != chained {
                        continue;
                    }
                    eng.reg_dst.push(idx);
                    eng.reg_d.push(*d);
                    eng.reg_en.push(en.unwrap_or(NONE));
                    eng.reg_clr.push(clr.unwrap_or(NONE));
                    eng.reg_init.push(*init);
                }
                if pass == 0 {
                    eng.reg_dir_start[slot] = eng.reg_dst.len();
                }
            }
            eng.reg_kind_start[slot + 1] = eng.reg_dst.len();
        }
        for wp in write_ports {
            eng.wp_mem.push(wp.mem);
            eng.wp_addr.push(wp.addr);
            eng.wp_data.push(wp.data);
            eng.wp_we.push(wp.we);
        }
        eng.scratch = vec![0; eng.reg_dst.len() + eng.sr_dst.len()];

        // Final stream statistics.
        eng.stats.ops_final = eng.op_code.len();
        eng.stats.levels = level_count;
        let mut superops: Vec<(&'static str, usize)> = Vec::new();
        let mut opcodes: Vec<(&'static str, usize)> = Vec::new();
        let bump = |histo: &mut Vec<(&'static str, usize)>, name| match histo
            .iter_mut()
            .find(|(n, _)| *n == name)
        {
            Some((_, count)) => *count += 1,
            None => histo.push((name, 1)),
        };
        for &code in &eng.op_code {
            let name = op_name(code);
            bump(&mut opcodes, name);
            if code >= OP_NAND {
                bump(&mut superops, name);
            }
        }
        let by_count = |a: &(&str, usize), b: &(&str, usize)| b.1.cmp(&a.1).then(a.0.cmp(b.0));
        superops.sort_by(by_count);
        opcodes.sort_by(by_count);
        eng.stats.superops = superops;
        eng.stats.opcodes = opcodes;
        eng.threaded = ProgramCache(Some(eng.build_threaded()));
        eng
    }

    // ---- threaded program construction -----------------------------------

    /// Specialize op `i` into a pure compute closure: the opcode selects
    /// the arm *once here*, and operand slots, masks, shifts and derived
    /// constants (repack parts, `mask64` widths, CAT3 shift pair, owned
    /// `OP_SELECT` leaf tables) are captured rather than re-loaded and
    /// re-decoded on every execution. Must mirror [`exec_scalar`] exactly;
    /// the `OP_SELECT` arm is that opcode's only implementation.
    fn compile_op(&self, i: usize) -> OpFn {
        let (a, b, c) = (self.op_a[i], self.op_b[i], self.op_c[i]);
        let imm = self.op_imm[i];
        match self.op_code[i] {
            OP_NOT => th1(a, move |x| !x & imm),
            OP_RED_AND => th1(a, move |x| u64::from(x == imm)),
            OP_RED_OR => th1(a, |x| u64::from(x != 0)),
            OP_RED_XOR => th1(a, |x| u64::from(x.count_ones() & 1 == 1)),
            OP_AND => th2(a, b, |x, y| x & y),
            OP_OR => th2(a, b, |x, y| x | y),
            OP_XOR => th2(a, b, |x, y| x ^ y),
            OP_ADD => th2(a, b, move |x, y| x.wrapping_add(y) & imm),
            OP_SUB => th2(a, b, move |x, y| x.wrapping_sub(y) & imm),
            OP_MUL => th2(a, b, move |x, y| x.wrapping_mul(y) & imm),
            OP_EQ => th2(a, b, |x, y| u64::from(x == y)),
            OP_NE => th2(a, b, |x, y| u64::from(x != y)),
            OP_LT => th2(a, b, |x, y| u64::from(x < y)),
            OP_LE => th2(a, b, |x, y| u64::from(x <= y)),
            OP_SHL => {
                let w = c as u64;
                th2(a, b, move |x, sh| if sh >= w { 0 } else { (x << sh) & imm })
            }
            OP_SHR => {
                let w = c as u64;
                th2(a, b, move |x, sh| if sh >= w { 0 } else { x >> sh })
            }
            OP_MUX => th3(a, b, c, |s, t, f| if s != 0 { t } else { f }),
            OP_SLICE => th1(a, move |x| (x >> c) & imm),
            OP_CONCAT => th2(a, b, move |hi, lo| (hi << c) | lo),
            OP_READ_ASYNC => {
                let (a, m) = (a as usize, c as usize);
                Box::new(move |v, mems| mems[m].get(v[a] as usize).copied().unwrap_or(0))
            }
            OP_NAND => th2(a, b, move |x, y| !(x & y) & imm),
            OP_NOR => th2(a, b, move |x, y| !(x | y) & imm),
            OP_XNOR => th2(a, b, move |x, y| !(x ^ y) & imm),
            OP_ANDN => th2(a, b, move |x, y| x & !y & imm),
            OP_AND3 => th3(a, b, c, |x, y, z| x & y & z),
            OP_OR3 => th3(a, b, c, |x, y, z| x | y | z),
            OP_XOR3 => th3(a, b, c, |x, y, z| x ^ y ^ z),
            OP_AND_IMM => th1(a, move |x| x & imm),
            OP_OR_IMM => th1(a, move |x| x | imm),
            OP_XOR_IMM => th1(a, move |x| x ^ imm),
            OP_ADD_IMM => {
                let m = mask64(c);
                th1(a, move |x| x.wrapping_add(imm) & m)
            }
            OP_EQ_IMM => th1(a, move |x| u64::from(x == imm)),
            OP_NE_IMM => th1(a, move |x| u64::from(x != imm)),
            OP_MUX_EQI => th3(a, b, c, move |s, t, f| if s == imm { t } else { f }),
            OP_SHL_IMM => th1(a, move |x| (x << c) & imm),
            OP_REPACK => {
                let (l1, l2, w2, m1, m2) = repack_parts(c);
                th2(a, b, move |x, y| {
                    (((x >> l1) & m1) << w2) | ((y >> l2) & m2)
                })
            }
            OP_MUX_BIT => th3(
                a,
                b,
                c,
                move |s, t, f| if (s >> imm) & 1 != 0 { t } else { f },
            ),
            OP_ANDSHR => th2(a, b, move |x, y| x & ((y >> c) & imm)),
            OP_CAT3 => {
                let (s1, s2) = ((imm & 0xff) as u32, ((imm >> 8) & 0xff) as u32);
                th3(a, b, c, move |x, y, z| (((x << s1) | y) << s2) | z)
            }
            OP_INC_IF => {
                let m = mask64(c);
                th2(
                    a,
                    b,
                    move |en, q| {
                        if en != 0 {
                            q.wrapping_add(imm) & m
                        } else {
                            q
                        }
                    },
                )
            }
            OP_SELECT => {
                // Own a copy of the leaf-table slice so the closure indexes
                // a captured constant table instead of the engine's side
                // array (and stays valid however the engine moves).
                let start = c as usize;
                let tab: Vec<u32> = self.sel_tab[start..start + imm as usize + 1].to_vec();
                let a = a as usize;
                Box::new(move |v, _| v[tab[((v[a] >> b) & imm) as usize] as usize])
            }
            _ => unreachable!("invalid opcode"),
        }
    }

    /// Compile one same-opcode run (`idxs`, level-internal) into a run
    /// block: packed slot/parameter columns plus a loop whose body is the
    /// opcode's specialized element function — no per-op dispatch, no
    /// opcode loads. Must mirror [`exec_scalar`] arm for arm. Memory and
    /// select ops fall back to chained per-op closures (they are rare and
    /// need captured tables/bank handles).
    fn compile_run(&self, idxs: &[usize]) -> BlockFn {
        let col = |src: &[u32]| -> Vec<u32> { idxs.iter().map(|&i| src[i]).collect() };
        let dst = col(&self.op_dst);
        let a = col(&self.op_a);
        let b = col(&self.op_b);
        let cv = col(&self.op_c);
        let imm: Vec<u64> = idxs.iter().map(|&i| self.op_imm[i]).collect();
        let cu: Vec<u64> = cv.iter().map(|&c| u64::from(c)).collect();
        // `c` is a result width only for ADD_IMM / INC_IF — materialize the
        // mask column inside those arms (elsewhere `c` is a slot or NONE).
        let mk = |cv: &[u32]| -> Vec<u64> { cv.iter().map(|&c| mask64(c)).collect() };
        let zz: Vec<u64> = vec![0; idxs.len()]; // unused-parameter column
        match self.op_code[idxs[0]] {
            OP_NOT => rn1(dst, a, imm, zz, |x, p, _| !x & p),
            OP_RED_AND => rn1(dst, a, imm, zz, |x, p, _| u64::from(x == p)),
            OP_RED_OR => rn1(dst, a, zz, imm, |x, _, _| u64::from(x != 0)),
            OP_RED_XOR => rn1(dst, a, zz, imm, |x, _, _| {
                u64::from(x.count_ones() & 1 == 1)
            }),
            OP_AND => rn2(dst, a, b, zz, imm, |x, y, _, _| x & y),
            OP_OR => rn2(dst, a, b, zz, imm, |x, y, _, _| x | y),
            OP_XOR => rn2(dst, a, b, zz, imm, |x, y, _, _| x ^ y),
            OP_ADD => rn2(dst, a, b, imm, zz, |x, y, p, _| x.wrapping_add(y) & p),
            OP_SUB => rn2(dst, a, b, imm, zz, |x, y, p, _| x.wrapping_sub(y) & p),
            OP_MUL => rn2(dst, a, b, imm, zz, |x, y, p, _| x.wrapping_mul(y) & p),
            OP_EQ => rn2(dst, a, b, zz, imm, |x, y, _, _| u64::from(x == y)),
            OP_NE => rn2(dst, a, b, zz, imm, |x, y, _, _| u64::from(x != y)),
            OP_LT => rn2(dst, a, b, zz, imm, |x, y, _, _| u64::from(x < y)),
            OP_LE => rn2(dst, a, b, zz, imm, |x, y, _, _| u64::from(x <= y)),
            OP_SHL => rn2(
                dst,
                a,
                b,
                cu,
                imm,
                |x, sh, p, q| {
                    if sh >= p {
                        0
                    } else {
                        (x << sh) & q
                    }
                },
            ),
            OP_SHR => rn2(
                dst,
                a,
                b,
                cu,
                imm,
                |x, sh, p, _| if sh >= p { 0 } else { x >> sh },
            ),
            OP_MUX => rn3(
                dst,
                a,
                b,
                cv,
                zz,
                imm,
                |s, t, f, _, _| if s != 0 { t } else { f },
            ),
            OP_SLICE => rn1(dst, a, cu, imm, |x, p, q| (x >> p) & q),
            OP_CONCAT => rn2(dst, a, b, cu, imm, |hi, lo, p, _| (hi << p) | lo),
            OP_NAND => rn2(dst, a, b, imm, zz, |x, y, p, _| !(x & y) & p),
            OP_NOR => rn2(dst, a, b, imm, zz, |x, y, p, _| !(x | y) & p),
            OP_XNOR => rn2(dst, a, b, imm, zz, |x, y, p, _| !(x ^ y) & p),
            OP_ANDN => rn2(dst, a, b, imm, zz, |x, y, p, _| x & !y & p),
            OP_AND3 => rn3(dst, a, b, cv, zz, imm, |x, y, z, _, _| x & y & z),
            OP_OR3 => rn3(dst, a, b, cv, zz, imm, |x, y, z, _, _| x | y | z),
            OP_XOR3 => rn3(dst, a, b, cv, zz, imm, |x, y, z, _, _| x ^ y ^ z),
            OP_AND_IMM => rn1(dst, a, imm, zz, |x, p, _| x & p),
            OP_OR_IMM => rn1(dst, a, imm, zz, |x, p, _| x | p),
            OP_XOR_IMM => rn1(dst, a, imm, zz, |x, p, _| x ^ p),
            OP_ADD_IMM => {
                let mk = mk(&cv);
                rn1(dst, a, imm, mk, |x, p, q| x.wrapping_add(p) & q)
            }
            OP_EQ_IMM => rn1(dst, a, imm, zz, |x, p, _| u64::from(x == p)),
            OP_NE_IMM => rn1(dst, a, imm, zz, |x, p, _| u64::from(x != p)),
            OP_MUX_EQI => rn3(
                dst,
                a,
                b,
                cv,
                imm,
                zz,
                |s, t, f, p, _| if s == p { t } else { f },
            ),
            OP_SHL_IMM => rn1(dst, a, cu, imm, |x, p, q| (x << p) & q),
            OP_REPACK => rn2(dst, a, b, cu, zz, |x, y, p, _| {
                let (l1, l2, w2, m1, m2) = repack_parts(p as u32);
                (((x >> l1) & m1) << w2) | ((y >> l2) & m2)
            }),
            OP_MUX_BIT => rn3(dst, a, b, cv, imm, zz, |s, t, f, p, _| {
                if (s >> p) & 1 != 0 {
                    t
                } else {
                    f
                }
            }),
            OP_ANDSHR => rn2(dst, a, b, cu, imm, |x, y, p, q| x & ((y >> p) & q)),
            OP_CAT3 => rn3(dst, a, b, cv, imm, zz, |x, y, z, p, _| {
                (((x << (p & 0xff)) | y) << ((p >> 8) & 0xff)) | z
            }),
            OP_INC_IF => {
                let mk = mk(&cv);
                rn2(dst, a, b, imm, mk, |en, q, p, m| {
                    if en != 0 {
                        q.wrapping_add(p) & m
                    } else {
                        q
                    }
                })
            }
            OP_READ_ASYNC | OP_SELECT => {
                let fns: Vec<(u32, OpFn)> = idxs
                    .iter()
                    .map(|&i| (self.op_dst[i], self.compile_op(i)))
                    .collect();
                Box::new(move |st: &mut ExecState| {
                    for (d, f) in &fns {
                        st.vals[*d as usize] = f(st.vals, st.mems);
                    }
                })
            }
            _ => unreachable!("invalid opcode"),
        }
    }

    /// Reorder a tail batch into a chain-following topological order: when
    /// the op just scheduled has a ready consumer inside the batch, that
    /// consumer goes next. Level-major order interleaves independent
    /// serial chains (one hop of each per level), which defeats the tail
    /// block's register forwarding — `prev` is always the *other* chain's
    /// destination. Scheduling each chain contiguously makes the forward
    /// hit on every hop. Any topological order is bit-exact (ops are pure
    /// and single-assignment); the scan is deterministic (first ready op
    /// in batch order when no consumer chains on).
    fn chain_schedule(&self, idxs: &[usize]) -> Vec<usize> {
        let n = idxs.len();
        let pos: HashMap<u32, usize> = idxs
            .iter()
            .enumerate()
            .map(|(k, &i)| (self.op_dst[i], k))
            .collect();
        let mut indeg: Vec<u32> = vec![0; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, &i) in idxs.iter().enumerate() {
            visit_code_operands(
                self.op_code[i],
                self.op_a[i],
                self.op_b[i],
                self.op_c[i],
                |s| {
                    if let Some(&p) = pos.get(&s) {
                        if p != k {
                            indeg[k] += 1;
                            consumers[p].push(k);
                        }
                    }
                },
            );
        }
        let mut order = Vec::with_capacity(n);
        let mut done = vec![false; n];
        let mut last: Option<usize> = None;
        for _ in 0..n {
            let next = last
                .and_then(|l| {
                    consumers[l]
                        .iter()
                        .copied()
                        .find(|&c| !done[c] && indeg[c] == 0)
                })
                .unwrap_or_else(|| {
                    (0..n)
                        .find(|&c| !done[c] && indeg[c] == 0)
                        .expect("tail batch is acyclic")
                });
            done[next] = true;
            order.push(idxs[next]);
            for &c in &consumers[next] {
                indeg[c] -= 1;
            }
            last = Some(next);
        }
        order
    }

    /// Compile a batch of *short* runs — singletons and near-singletons,
    /// possibly spanning several consecutive levels — into one packed
    /// dispatch block. Specializing a loop per opcode only pays when the
    /// loop iterates; a serial dependency chain (one op per level) would
    /// pay a boxed block call plus loop setup *per op*. Packing those ops'
    /// fields into dense columns and dispatching through [`exec_scalar`]
    /// inside a single block keeps the per-op cost at one predictable
    /// match branch, while the whole chain costs one boxed call instead of
    /// dozens.
    fn compile_tail(&self, idxs: &[usize]) -> BlockFn {
        let order = self.chain_schedule(idxs);
        // After chain scheduling, serial chains are contiguous same-opcode
        // stretches. Peel stretches where every op consumes the previous
        // op's destination in one consistent operand position into chain
        // runs: a loop carrying the chained value in a register, with both
        // the opcode dispatch and the forwarding compare hoisted out.
        // Everything else stays in packed-dispatch sub-blocks, emitted in
        // schedule order so dataflow between parts is preserved.
        let chainable = |c: u8| matches!(c, OP_AND3 | OP_OR3 | OP_XOR3 | OP_CAT3);
        let mut parts: Vec<BlockFn> = Vec::new();
        let mut plain: Vec<usize> = Vec::new();
        let mut k = 0;
        while k < order.len() {
            let code = self.op_code[order[k]];
            if chainable(code) {
                let mut e = k + 1;
                let mut linkpos: Option<usize> = None;
                while e < order.len() && self.op_code[order[e]] == code {
                    let prev_dst = self.op_dst[order[e - 1]];
                    let ops3 = [
                        self.op_a[order[e]],
                        self.op_b[order[e]],
                        self.op_c[order[e]],
                    ];
                    match (linkpos, ops3.iter().position(|&s| s == prev_dst)) {
                        (None, Some(p)) => linkpos = Some(p),
                        (Some(p0), Some(p)) if p == p0 => {}
                        _ => break,
                    }
                    e += 1;
                }
                if e - k >= CHAIN_MIN {
                    if !plain.is_empty() {
                        parts.push(self.pack_tail(&plain));
                        plain.clear();
                    }
                    parts.push(self.compile_chain3(&order[k..e], linkpos.unwrap()));
                    k = e;
                    continue;
                }
            }
            plain.push(order[k]);
            k += 1;
        }
        if !plain.is_empty() {
            parts.push(self.pack_tail(&plain));
        }
        if parts.len() == 1 {
            return parts.pop().unwrap();
        }
        Box::new(move |st: &mut ExecState| {
            for part in &parts {
                part(st);
            }
        })
    }

    /// Compile a serial chain of three-operand ops (same opcode, each op's
    /// operand at `linkpos` equal to the previous op's destination) into a
    /// chain run: see [`ch3`]. The first op's `linkpos` operand seeds the
    /// accumulator — it is outside the chain, so loading it once is exact.
    fn compile_chain3(&self, idxs: &[usize], linkpos: usize) -> BlockFn {
        let code = self.op_code[idxs[0]];
        let mut y = Vec::with_capacity(idxs.len());
        let mut z = Vec::with_capacity(idxs.len());
        for &i in idxs {
            let ops3 = [self.op_a[i], self.op_b[i], self.op_c[i]];
            let mut rest = (0..3).filter(|&p| p != linkpos).map(|p| ops3[p]);
            y.push(rest.next().unwrap());
            z.push(rest.next().unwrap());
        }
        let dst: Vec<u32> = idxs.iter().map(|&i| self.op_dst[i]).collect();
        let imm: Vec<u64> = idxs.iter().map(|&i| self.op_imm[i]).collect();
        let seed = [self.op_a[idxs[0]], self.op_b[idxs[0]], self.op_c[idxs[0]]][linkpos];
        let cat =
            |x: u64, y: u64, z: u64, p: u64| (((x << (p & 0xff)) | y) << ((p >> 8) & 0xff)) | z;
        match code {
            OP_AND3 => ch3(seed, dst, y, z, imm, |x, y, z, _| x & y & z),
            OP_OR3 => ch3(seed, dst, y, z, imm, |x, y, z, _| x | y | z),
            OP_XOR3 => ch3(seed, dst, y, z, imm, |x, y, z, _| x ^ y ^ z),
            // CAT3 is positional: permute the accumulator back into the
            // operand slot the chain actually links through.
            OP_CAT3 => match linkpos {
                0 => ch3(seed, dst, y, z, imm, cat),
                1 => ch3(seed, dst, y, z, imm, move |x, y, z, p| cat(y, x, z, p)),
                _ => ch3(seed, dst, y, z, imm, move |x, y, z, p| cat(y, z, x, p)),
            },
            _ => unreachable!("unchainable opcode"),
        }
    }

    /// Pack a (possibly reordered) batch of tail ops into one
    /// [`exec_scalar`]-dispatch block with single-register forwarding.
    fn pack_tail(&self, idxs: &[usize]) -> BlockFn {
        let code: Vec<u8> = idxs.iter().map(|&i| self.op_code[i]).collect();
        let dst: Vec<u32> = idxs.iter().map(|&i| self.op_dst[i]).collect();
        let a: Vec<u32> = idxs.iter().map(|&i| self.op_a[i]).collect();
        let b: Vec<u32> = idxs.iter().map(|&i| self.op_b[i]).collect();
        let c: Vec<u32> = idxs.iter().map(|&i| self.op_c[i]).collect();
        let imm: Vec<u64> = idxs.iter().map(|&i| self.op_imm[i]).collect();
        Box::new(move |st: &mut ExecState| {
            // `acc` keeps the previous op's result in a register. A tail is
            // typically a serial dependency chain (that is what defeats run
            // specialization), so the next op's critical-path operand is
            // almost always `prev` — forwarding it from a register instead
            // of re-loading `vals[prev]` removes the store-to-load latency
            // from every hop of the chain. The compare is off the critical
            // path and perfectly predicted on a steady chain.
            let mut prev = u32::MAX;
            let mut acc = 0u64;
            for k in 0..code.len() {
                let out = exec_scalar(
                    code[k],
                    a[k],
                    b[k],
                    c[k],
                    imm[k],
                    &mut |s| {
                        if s == prev {
                            acc
                        } else {
                            st.vals[s as usize]
                        }
                    },
                    &mut |m, addr| st.mems[m as usize].get(addr as usize).copied().unwrap_or(0),
                );
                st.vals[dst[k] as usize] = out;
                prev = dst[k];
                acc = out;
            }
        })
    }

    /// Build the scalar threaded program (at lowering time, or on a
    /// clone's first eval): one specialized closure per op for the
    /// incremental path, plus the dense sweep plan — each
    /// level's ops sorted by opcode and compiled into run blocks —
    /// recording the compile ledger.
    fn build_threaded(&mut self) -> ThreadedProgram {
        let t0 = std::time::Instant::now();
        let ops: Vec<OpFn> = (0..self.op_code.len())
            .map(|i| self.compile_op(i))
            .collect();
        let levels = self.level_start.len() - 1;
        let mut runs: Vec<BlockFn> = Vec::new();
        let mut run_start: Vec<u32> = Vec::with_capacity(levels + 1);
        let mut idxs: Vec<usize> = Vec::new();
        // Short segments accumulate here until a specialized block must be
        // emitted; a pending tail may straddle level boundaries (a serial
        // chain becomes ONE block). `run_start[l]` is recorded before the
        // level's segments, so a mid-stream sweep entering at level `l`
        // re-executes any earlier-level ops still pending in that tail —
        // harmless, because ops are pure functions of settled values.
        let mut tail: Vec<usize> = Vec::new();
        for lvl in 0..levels {
            run_start.push(runs.len() as u32);
            idxs.clear();
            idxs.extend(self.level_start[lvl] as usize..self.level_start[lvl + 1] as usize);
            // Sort the level's ops by opcode — stable, so stream order
            // survives within each opcode. Same-level ops are independent
            // by levelization (a consumer always sits on a later level),
            // so any order is bit-exact; sorting maximizes run length.
            idxs.sort_by_key(|&i| self.op_code[i]);
            let mut s = 0;
            while s < idxs.len() {
                let mut e = s + 1;
                while e < idxs.len() && self.op_code[idxs[e]] == self.op_code[idxs[s]] {
                    e += 1;
                }
                // SELECT carries a captured leaf table the packed
                // interpreter can't see, so it always takes the chained
                // closure form from `compile_run`, whatever its length.
                if e - s >= RUN_MIN_LEN || self.op_code[idxs[s]] == OP_SELECT {
                    if !tail.is_empty() {
                        runs.push(self.compile_tail(&tail));
                        tail.clear();
                    }
                    runs.push(self.compile_run(&idxs[s..e]));
                } else {
                    tail.extend_from_slice(&idxs[s..e]);
                }
                s = e;
            }
        }
        if !tail.is_empty() {
            runs.push(self.compile_tail(&tail));
        }
        run_start.push(runs.len() as u32);
        self.stats.compiles += 1;
        self.stats.blocks_built += runs.len();
        self.stats.closures_specialized += ops.len();
        self.stats.compile_ns += t0.elapsed().as_nanos() as u64;
        ThreadedProgram {
            ops,
            runs,
            run_start,
        }
    }

    /// Visit the value-operand node indices of op `i` (for `OP_SELECT`,
    /// the selector plus every leaf in its table slice).
    #[inline]
    fn op_operands(eng: &CompiledEngine, i: usize, mut f: impl FnMut(u32)) {
        if eng.op_code[i] == OP_SELECT {
            f(eng.op_a[i]);
            let start = eng.op_c[i] as usize;
            for &leaf in &eng.sel_tab[start..start + eng.op_imm[i] as usize + 1] {
                f(leaf);
            }
            return;
        }
        visit_code_operands(eng.op_code[i], eng.op_a[i], eng.op_b[i], eng.op_c[i], f);
    }

    /// Mark every op consuming `node` dirty (queued at its level).
    pub(crate) fn mark_node_dirty(&mut self, node: u32) {
        if self.full_dirty {
            return; // everything recomputes anyway
        }
        let lo = self.cons_start[node as usize] as usize;
        let hi = self.cons_start[node as usize + 1] as usize;
        for j in lo..hi {
            let op = self.cons[j] as usize;
            if !self.op_dirty[op] {
                self.op_dirty[op] = true;
                self.level_queues[self.op_level[op] as usize].push(op as u32);
                self.any_dirty = true;
            }
        }
    }

    /// Mark every async read port of memory `mem` dirty (after a backdoor
    /// poke or a committed write). This is all a poke needs: read-port
    /// closures and packed tail blocks read the banks at call time, and
    /// pass A never folds a memory read.
    pub(crate) fn mark_mem_dirty(&mut self, mem: u32) {
        if self.full_dirty {
            return;
        }
        // Iterate by index: `mem_cons` and the queue state are disjoint
        // fields, but the borrow checker can't see that through a shared
        // slice borrow.
        for k in 0..self.mem_cons[mem as usize].len() {
            let op = self.mem_cons[mem as usize][k] as usize;
            if !self.op_dirty[op] {
                self.op_dirty[op] = true;
                self.level_queues[self.op_level[op] as usize].push(op as u32);
                self.any_dirty = true;
            }
        }
    }

    /// Clear every queue and queued-op flag. The `op_dirty` flags are only
    /// ever set together with a queue push, so draining the queues clears
    /// exactly the set flags.
    fn reset_dirty(&mut self) {
        for lvl in 0..self.level_queues.len() {
            let mut queue = std::mem::take(&mut self.level_queues[lvl]);
            for &op in &queue {
                self.op_dirty[op as usize] = false;
            }
            queue.clear();
            self.level_queues[lvl] = queue;
        }
        self.any_dirty = false;
    }

    /// Settle combinational values. Chooses the dense sweep when everything
    /// is stale; otherwise drains the per-level dirty queues — and, when
    /// the adaptive policy is engaged and a level's dirty population is
    /// dense, switches to straight-line sweeps of whole level ranges,
    /// skipping per-op queue bookkeeping.
    ///
    /// The compiled program is taken out of its cache slot for the
    /// duration of the eval (the borrow checker cannot see that the
    /// program and the queue state are disjoint) and put back afterwards.
    /// The slot is empty only in a clone, which builds its program here.
    pub(crate) fn eval(&mut self, vals: &mut [u64], mems: &[Vec<u64>]) {
        if !self.full_dirty && !self.any_dirty {
            return;
        }
        let prog = match self.threaded.0.take() {
            Some(prog) => prog,
            None => self.build_threaded(),
        };
        self.stats.evals_threaded += 1;
        self.eval_inner(&prog, vals, mems);
        self.threaded.0 = Some(prog);
    }

    /// The eval body, run through the threaded program.
    fn eval_inner(&mut self, prog: &ThreadedProgram, vals: &mut [u64], mems: &[Vec<u64>]) {
        if self.full_dirty {
            prog.exec_levels_raw(0, vals, mems);
            self.full_dirty = false;
            self.reset_dirty();
            return;
        }
        if !self.adaptive {
            for lvl in 0..self.level_queues.len() {
                self.drain_level(prog, lvl, vals, mems);
            }
            self.any_dirty = false;
            return;
        }
        let levels = self.level_queues.len();
        let mut cascade_from = None;
        for lvl in 0..levels {
            let queued = self.level_queues[lvl].len();
            if queued == 0 {
                continue;
            }
            let lo = self.level_start[lvl] as usize;
            let hi = self.level_start[lvl + 1] as usize;
            let span = hi - lo;
            if queued == span && span >= CASCADE_MIN_SPAN {
                // Everything at this level recomputes → everything deeper
                // will too (to within change detection, which a span this
                // size no longer pays for). Straight-line the rest.
                cascade_from = Some(lvl);
                break;
            }
            if queued * 2 >= span && span >= DENSE_MIN_SPAN {
                // Dense-with-mark: sweep the whole level, keep change
                // detection so propagation still prunes.
                let mut queue = std::mem::take(&mut self.level_queues[lvl]);
                for &op in &queue {
                    self.op_dirty[op as usize] = false;
                }
                queue.clear();
                self.level_queues[lvl] = queue;
                for op in lo..hi {
                    let new = (prog.ops[op])(vals, mems);
                    let dst = self.op_dst[op];
                    if vals[dst as usize] != new {
                        vals[dst as usize] = new;
                        self.mark_node_dirty(dst);
                    }
                }
            } else {
                self.drain_level(prog, lvl, vals, mems);
            }
        }
        match cascade_from {
            Some(from) => {
                prog.exec_levels_raw(from, vals, mems);
                self.reset_dirty();
            }
            None => self.any_dirty = false,
        }
    }

    /// Drain one level's dirty queue per-op (the incremental path).
    fn drain_level(
        &mut self,
        prog: &ThreadedProgram,
        lvl: usize,
        vals: &mut [u64],
        mems: &[Vec<u64>],
    ) {
        // Take the queue out so `mark_node_dirty` (which only ever pushes
        // to deeper levels) can borrow `self` freely.
        let mut queue = std::mem::take(&mut self.level_queues[lvl]);
        for &op32 in &queue {
            let op = op32 as usize;
            self.op_dirty[op] = false;
            let new = (prog.ops[op])(vals, mems);
            let dst = self.op_dst[op];
            if vals[dst as usize] != new {
                vals[dst as usize] = new;
                self.mark_node_dirty(dst);
            }
        }
        queue.clear();
        self.level_queues[lvl] = queue; // keep the allocation
    }

    /// Sample next-state into the persistent scratch buffer (phase 1:
    /// everything still shows pre-edge values). Only *chained* registers —
    /// those whose d/en/clr is itself a state destination — need this
    /// round-trip; the direct majority commits straight from the settled
    /// comb values in [`CompiledEngine::commit_direct`]. Sync read ports
    /// always sample here so they observe pre-write memory contents.
    #[inline]
    fn sample_state(&mut self, vals: &[u64], mems: &[Vec<u64>]) {
        let [k0, k1, k2, k3, _] = self.reg_kind_start;
        let [d0, d1, d2, d3] = self.reg_dir_start;
        for r in k0..d0 {
            self.scratch[r] = vals[self.reg_d[r] as usize];
        }
        for r in k1..d1 {
            self.scratch[r] = if vals[self.reg_en[r] as usize] == 0 {
                vals[self.reg_dst[r] as usize]
            } else {
                vals[self.reg_d[r] as usize]
            };
        }
        for r in k2..d2 {
            self.scratch[r] = if vals[self.reg_clr[r] as usize] != 0 {
                self.reg_init[r]
            } else {
                vals[self.reg_d[r] as usize]
            };
        }
        for r in k3..d3 {
            self.scratch[r] = if vals[self.reg_clr[r] as usize] != 0 {
                self.reg_init[r]
            } else if vals[self.reg_en[r] as usize] == 0 {
                vals[self.reg_dst[r] as usize]
            } else {
                vals[self.reg_d[r] as usize]
            };
        }
        let nregs = self.reg_dst.len();
        for s in 0..self.sr_dst.len() {
            let addr = vals[self.sr_addr[s] as usize] as usize;
            self.scratch[nregs + s] = mems[self.sr_mem[s] as usize]
                .get(addr)
                .copied()
                .unwrap_or(0);
        }
    }

    /// Commit one direct register: write-if-changed plus dirty marking.
    #[inline(always)]
    fn commit_reg(&mut self, dst: u32, new: u64, vals: &mut [u64]) {
        if vals[dst as usize] != new {
            vals[dst as usize] = new;
            self.mark_node_dirty(dst);
        }
    }

    /// Single-pass commit of the direct registers: their inputs are all
    /// settled comb values no other commit can disturb, so next-state is
    /// computed and latched in place — no scratch store/reload per edge.
    #[inline]
    fn commit_direct(&mut self, vals: &mut [u64]) {
        let [_, k1, k2, k3, k4] = self.reg_kind_start;
        let [d0, d1, d2, d3] = self.reg_dir_start;
        for r in d0..k1 {
            let new = vals[self.reg_d[r] as usize];
            self.commit_reg(self.reg_dst[r], new, vals);
        }
        for r in d1..k2 {
            if vals[self.reg_en[r] as usize] == 0 {
                continue; // gated off: holds its value, nothing to mark
            }
            let new = vals[self.reg_d[r] as usize];
            self.commit_reg(self.reg_dst[r], new, vals);
        }
        for r in d2..k3 {
            let new = if vals[self.reg_clr[r] as usize] != 0 {
                self.reg_init[r]
            } else {
                vals[self.reg_d[r] as usize]
            };
            self.commit_reg(self.reg_dst[r], new, vals);
        }
        for r in d3..k4 {
            let new = if vals[self.reg_clr[r] as usize] != 0 {
                self.reg_init[r]
            } else if vals[self.reg_en[r] as usize] == 0 {
                continue;
            } else {
                vals[self.reg_d[r] as usize]
            };
            self.commit_reg(self.reg_dst[r], new, vals);
        }
    }

    /// Apply write ports (phase 2). A write that actually changes a word
    /// invalidates that memory's async read ports so the next eval
    /// re-executes them.
    #[inline]
    fn apply_writes(&mut self, vals: &[u64], mems: &mut [Vec<u64>]) {
        for w in 0..self.wp_mem.len() {
            if vals[self.wp_we[w] as usize] != 0 {
                let addr = vals[self.wp_addr[w] as usize] as usize;
                let mem = &mut mems[self.wp_mem[w] as usize];
                if addr < mem.len() {
                    let data = vals[self.wp_data[w] as usize];
                    if mem[addr] != data {
                        mem[addr] = data;
                        self.mark_mem_dirty(self.wp_mem[w]);
                    }
                }
            }
        }
    }

    /// One clock edge with incremental bookkeeping: eval, sample, write,
    /// commit-with-change-detection so the next `eval` touches only the
    /// cones of state that actually toggled.
    pub(crate) fn step(&mut self, vals: &mut [u64], mems: &mut [Vec<u64>]) {
        self.eval(vals, mems);
        self.sample_state(vals, mems);
        self.apply_writes(vals, mems);
        self.commit_direct(vals);
        // Chained regs and sync read ports latch their pre-sampled values.
        let [k0, k1, k2, k3, _] = self.reg_kind_start;
        let [d0, d1, d2, d3] = self.reg_dir_start;
        for (lo, hi) in [(k0, d0), (k1, d1), (k2, d2), (k3, d3)] {
            for r in lo..hi {
                let new = self.scratch[r];
                self.commit_reg(self.reg_dst[r], new, vals);
            }
        }
        let nregs = self.reg_dst.len();
        for s in 0..self.sr_dst.len() {
            let new = self.scratch[nregs + s];
            self.commit_reg(self.sr_dst[s], new, vals);
        }
    }

    /// `n` fused eval+commit cycles, all inside the engine: the per-cycle
    /// loop is eval → sample → write → commit with change detection, so
    /// after the first settle only the cones of state that actually toggle
    /// are re-executed each cycle. The dirty queues reach a steady-state
    /// capacity during the first few edges and are reused thereafter —
    /// zero per-edge heap allocation.
    pub(crate) fn run_batch(&mut self, n: u64, vals: &mut [u64], mems: &mut [Vec<u64>]) {
        for _ in 0..n {
            self.step(vals, mems);
        }
    }

    /// Lowering / fusion statistics for this stream.
    pub(crate) fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether `vals[node]` is kept current by the engine. Nodes fused or
    /// elided out of the stream return `false` and must be evaluated on
    /// demand from their (still-computed) cone.
    pub(crate) fn is_computed(&self, node: u32) -> bool {
        self.computed[node as usize]
    }

    /// Compile-time constant comb nodes `(node, value)`; the owner seeds
    /// its value storage from this once after construction.
    pub(crate) fn folded_consts(&self) -> &[(u32, u64)] {
        &self.folded
    }

    /// Test hook: every operand of every op must come from a strictly
    /// shallower level (sources are level-less), i.e. fusion never absorbs
    /// across a level boundary in a way that would break the level-sweep
    /// execution order, and the stream is sorted by level.
    #[cfg(test)]
    pub(crate) fn check_level_invariant(&self) {
        let n = self.cons_start.len() - 1;
        let mut produced_level = vec![None; n];
        for i in 0..self.op_code.len() {
            produced_level[self.op_dst[i] as usize] = Some(self.op_level[i]);
        }
        for i in 0..self.op_code.len() {
            assert!(
                i == 0 || self.op_level[i - 1] <= self.op_level[i],
                "stream not sorted by level at op {i}"
            );
            let lvl = self.op_level[i];
            Self::op_operands(self, i, |dep| {
                if let Some(pl) = produced_level[dep as usize] {
                    assert!(
                        pl < lvl,
                        "op {i} (level {lvl}) consumes node {dep} produced at level {pl}"
                    );
                }
            });
        }
    }
}

// ---- peephole + superop fusion -------------------------------------------

/// Kill op `i` and release its operand references (for a collapsed
/// `OP_SELECT`, one reference per table leaf plus the selector).
fn kill_op(w: &mut WorkOps, i: usize, cnt: &mut [u32]) {
    w.killed[i] = true;
    if w.code[i] == OP_SELECT {
        cnt[w.a[i] as usize] -= 1;
        let start = w.c[i] as usize;
        for k in start..start + w.imm[i] as usize + 1 {
            cnt[w.tab[k] as usize] -= 1;
        }
        return;
    }
    visit_code_operands(w.code[i], w.a[i], w.b[i], w.c[i], |dep| {
        cnt[dep as usize] -= 1;
    });
}

/// Fold op `i` to the compile-time constant `v`.
fn fold_to_const(
    w: &mut WorkOps,
    i: usize,
    v: u64,
    cnt: &mut [u32],
    konst: &mut [Option<u64>],
    folded: &mut Vec<(u32, u64)>,
    stats: &mut EngineStats,
) {
    kill_op(w, i, cnt);
    konst[w.dst[i] as usize] = Some(v);
    folded.push((w.dst[i], v));
    stats.consts_folded += 1;
}

/// Deepest selector bit a collapsed select tree may test: bit 7 bounds the
/// leaf table at 256 entries, past which the gather's cache footprint beats
/// the dispatches it saves.
const SELECT_MAX_BIT: u64 = 7;

/// Collect, in selector order, the leaves of a complete `MUX_BIT` subtree:
/// `node` must be produced by a sole-consumer, non-external mux testing
/// `sel` bit `bit`, recursing down to bit 0; at `bit == -1` the node itself
/// is a leaf. Interior ops are recorded in `kill` for the caller to apply
/// only if the whole tree gathers — nothing is mutated here, so a partial
/// (non-power-of-two) tree aborts without damage.
#[allow(clippy::too_many_arguments)]
fn gather_select_tree(
    w: &WorkOps,
    dst_op: &[u32],
    cnt: &[u32],
    ext_ref: &[bool],
    sel: u32,
    node: u32,
    bit: i64,
    leaves: &mut Vec<u32>,
    kill: &mut Vec<usize>,
) -> bool {
    if bit < 0 {
        leaves.push(node);
        return true;
    }
    let Some(p) = fusable(w, dst_op, cnt, ext_ref, node) else {
        return false;
    };
    if w.code[p] != OP_MUX_BIT || w.a[p] != sel || w.imm[p] != bit as u64 {
        return false;
    }
    kill.push(p);
    gather_select_tree(w, dst_op, cnt, ext_ref, sel, w.c[p], bit - 1, leaves, kill)
        && gather_select_tree(w, dst_op, cnt, ext_ref, sel, w.b[p], bit - 1, leaves, kill)
}

/// Is `node` a producer op that can be absorbed into its sole consumer?
/// Requires a live producing op, exactly one consuming op, and no external
/// reference (named signal, output, state-plan read).
fn fusable(w: &WorkOps, dst_op: &[u32], cnt: &[u32], ext_ref: &[bool], node: u32) -> Option<usize> {
    let p = dst_op[node as usize];
    if p == NONE {
        return None;
    }
    let p = p as usize;
    if w.killed[p] || cnt[node as usize] != 1 || ext_ref[node as usize] {
        return None;
    }
    Some(p)
}

/// The peephole + fusion pipeline over the lowered stream, in three
/// passes (all in emit order, which is level order, so operand facts are
/// final before any consumer inspects them):
///
/// **A. constant peephole** — ops whose inputs are all compile-time
/// constants fold away entirely (recorded in `folded` so `Sim` can seed
/// their values); a constant on one side of a binop rewrites in place to
/// an immediate form (`AND_IMM`, `ADD_IMM`, `EQ_IMM`, `SHL_IMM`, …).
///
/// **B. superop fusion** — a producer with exactly one consumer and no
/// external reference is absorbed into that consumer as a fused superop:
/// op→NOT chains (`NAND`/`NOR`/`XNOR`, comparison inversions), AND/OR/XOR
/// trees (`AND3`…), `ANDN`, compare-and-select (`MUX_EQI`, mux arm
/// swaps), SLICE-of-SLICE collapse and SLICE+CONCAT re-packs (`REPACK`).
/// The fused op keeps its original level, and absorbed operands come from
/// strictly shallower levels, so fusion never reaches across a level
/// boundary (asserted by `check_level_invariant`).
///
/// **C. dead elision** — a reverse sweep removes ops whose destination
/// has no remaining consumer and no external reference (cascading).
fn fuse_stream(
    nodes: &[Node],
    w: &mut WorkOps,
    ext_ref: &[bool],
    folded: &mut Vec<(u32, u64)>,
    stats: &mut EngineStats,
) {
    let n = nodes.len();
    let mut konst: Vec<Option<u64>> = vec![None; n];
    for (idx, node) in nodes.iter().enumerate() {
        if let Node::Const { value, .. } = node {
            konst[idx] = Some(*value);
        }
    }
    let mut cnt = vec![0u32; n];
    let mut dst_op = vec![NONE; n];
    for i in 0..w.code.len() {
        w.visit_operands(i, |dep| cnt[dep as usize] += 1);
        dst_op[w.dst[i] as usize] = i as u32;
    }

    // ---- pass A: constant folding & immediate rewrites ----
    for i in 0..w.code.len() {
        let code = w.code[i];
        if code != OP_READ_ASYNC {
            let mut all_const = true;
            w.visit_operands(i, |dep| all_const &= konst[dep as usize].is_some());
            if all_const {
                let v = exec_scalar(
                    code,
                    w.a[i],
                    w.b[i],
                    w.c[i],
                    w.imm[i],
                    &mut |nd| konst[nd as usize].unwrap(),
                    &mut |_, _| unreachable!("const fold never reads memory"),
                );
                fold_to_const(w, i, v, &mut cnt, &mut konst, folded, stats);
                continue;
            }
        }
        let (ka, kb) = (
            konst[w.a[i] as usize],
            if w.b[i] == NONE {
                None
            } else {
                konst[w.b[i] as usize]
            },
        );
        match code {
            OP_AND | OP_OR | OP_XOR => {
                let (var, k) = match (ka, kb) {
                    (Some(k), None) => (w.b[i], k),
                    (None, Some(k)) => (w.a[i], k),
                    _ => continue,
                };
                if code == OP_AND && k == 0 {
                    fold_to_const(w, i, 0, &mut cnt, &mut konst, folded, stats);
                    continue;
                }
                let konst_side = if var == w.b[i] { w.a[i] } else { w.b[i] };
                cnt[konst_side as usize] -= 1;
                w.code[i] = match code {
                    OP_AND => OP_AND_IMM,
                    OP_OR => OP_OR_IMM,
                    _ => OP_XOR_IMM,
                };
                w.a[i] = var;
                w.b[i] = NONE;
                w.imm[i] = k;
                stats.imm_rewrites += 1;
            }
            OP_ADD | OP_SUB => {
                // ADD commutes; SUB only folds a constant subtrahend
                // (two's complement into the addend immediate).
                let (var, k) = match (ka, kb, code) {
                    (None, Some(k), OP_ADD) => (w.a[i], k),
                    (Some(k), None, OP_ADD) => (w.b[i], k),
                    (None, Some(k), OP_SUB) => (w.a[i], k.wrapping_neg()),
                    _ => continue,
                };
                let konst_side = if var == w.a[i] { w.b[i] } else { w.a[i] };
                cnt[konst_side as usize] -= 1;
                let width = w.imm[i].count_ones();
                w.code[i] = OP_ADD_IMM;
                w.a[i] = var;
                w.b[i] = NONE;
                w.c[i] = width;
                w.imm[i] = k;
                stats.imm_rewrites += 1;
            }
            OP_EQ | OP_NE => {
                let (var, k) = match (ka, kb) {
                    (Some(k), None) => (w.b[i], k),
                    (None, Some(k)) => (w.a[i], k),
                    _ => continue,
                };
                let konst_side = if var == w.b[i] { w.a[i] } else { w.b[i] };
                cnt[konst_side as usize] -= 1;
                w.code[i] = if code == OP_EQ { OP_EQ_IMM } else { OP_NE_IMM };
                w.a[i] = var;
                w.b[i] = NONE;
                w.imm[i] = k;
                stats.imm_rewrites += 1;
            }
            OP_SHL | OP_SHR => {
                let Some(k) = kb else { continue };
                let aw = w.c[i] as u64;
                if k >= aw {
                    fold_to_const(w, i, 0, &mut cnt, &mut konst, folded, stats);
                    continue;
                }
                cnt[w.b[i] as usize] -= 1;
                if code == OP_SHL {
                    w.code[i] = OP_SHL_IMM; // imm stays the result mask
                } else {
                    w.code[i] = OP_SLICE;
                    w.imm[i] = mask64(aw as u32); // premasked operand ⇒ no-op mask
                }
                w.b[i] = NONE;
                w.c[i] = k as u32;
                stats.imm_rewrites += 1;
            }
            OP_MUL => {
                let (var, k) = match (ka, kb) {
                    (Some(k), None) => (w.b[i], k),
                    (None, Some(k)) => (w.a[i], k),
                    _ => continue,
                };
                if k == 0 {
                    fold_to_const(w, i, 0, &mut cnt, &mut konst, folded, stats);
                    continue;
                }
                if !k.is_power_of_two() {
                    continue;
                }
                let konst_side = if var == w.b[i] { w.a[i] } else { w.b[i] };
                cnt[konst_side as usize] -= 1;
                w.code[i] = OP_SHL_IMM; // imm stays the result mask
                w.a[i] = var;
                w.b[i] = NONE;
                w.c[i] = k.trailing_zeros();
                stats.imm_rewrites += 1;
            }
            OP_CONCAT => {
                // Constant hi half (the `zext` idiom) ORs in as an immediate
                // over the lo half.
                let Some(k) = ka else { continue };
                cnt[w.a[i] as usize] -= 1;
                w.code[i] = OP_OR_IMM;
                w.imm[i] = k << w.c[i];
                w.a[i] = w.b[i];
                w.b[i] = NONE;
                w.c[i] = NONE;
                stats.imm_rewrites += 1;
            }
            OP_MUX => {
                // Constant select: the mux is a wire to the taken arm.
                let Some(k) = ka else { continue };
                let (taken, dropped) = if k != 0 {
                    (w.b[i], w.c[i])
                } else {
                    (w.c[i], w.b[i])
                };
                cnt[w.a[i] as usize] -= 1;
                cnt[dropped as usize] -= 1;
                w.code[i] = OP_OR_IMM;
                w.a[i] = taken;
                w.b[i] = NONE;
                w.c[i] = NONE;
                w.imm[i] = 0;
                stats.imm_rewrites += 1;
            }
            _ => {}
        }
    }

    // ---- pass B: superop fusion ----
    for i in 0..w.code.len() {
        if w.killed[i] {
            continue;
        }
        // Absorb producer op `p` (destination `node`) into op `i`.
        macro_rules! absorb {
            ($p:expr, $node:expr) => {{
                w.killed[$p] = true;
                cnt[$node as usize] -= 1;
                stats.ops_fused += 1;
            }};
        }
        match w.code[i] {
            OP_NOT => {
                let x = w.a[i];
                let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, x) else {
                    continue;
                };
                let m = w.imm[i];
                let repl = match w.code[p] {
                    OP_AND => Some((OP_NAND, w.a[p], w.b[p], m)),
                    OP_OR => Some((OP_NOR, w.a[p], w.b[p], m)),
                    OP_XOR => Some((OP_XNOR, w.a[p], w.b[p], m)),
                    OP_EQ if m == 1 => Some((OP_NE, w.a[p], w.b[p], 0)),
                    OP_NE if m == 1 => Some((OP_EQ, w.a[p], w.b[p], 0)),
                    OP_LT if m == 1 => Some((OP_LE, w.b[p], w.a[p], 0)),
                    OP_LE if m == 1 => Some((OP_LT, w.b[p], w.a[p], 0)),
                    OP_RED_OR if m == 1 => Some((OP_EQ_IMM, w.a[p], NONE, 0)),
                    OP_RED_AND if m == 1 => Some((OP_NE_IMM, w.a[p], NONE, w.imm[p])),
                    OP_EQ_IMM if m == 1 => Some((OP_NE_IMM, w.a[p], NONE, w.imm[p])),
                    OP_NE_IMM if m == 1 => Some((OP_EQ_IMM, w.a[p], NONE, w.imm[p])),
                    // NOT(NOT(y) & m1) & m2 = y & m2 when m2 ⊆ m1.
                    OP_NOT if m & !w.imm[p] == 0 => Some((OP_AND_IMM, w.a[p], NONE, m)),
                    _ => None,
                };
                if let Some((c2, a2, b2, imm2)) = repl {
                    w.code[i] = c2;
                    w.a[i] = a2;
                    w.b[i] = b2;
                    w.imm[i] = imm2;
                    absorb!(p, x);
                }
            }
            OP_AND | OP_OR | OP_XOR => {
                let (x, y) = (w.a[i], w.b[i]);
                let same = w.code[i];
                // A NOT on either side fuses into ANDN / XNOR first.
                if same != OP_OR {
                    let mut fused_not = false;
                    for (not_side, keep) in [(y, x), (x, y)] {
                        if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, not_side) {
                            if w.code[p] == OP_NOT {
                                w.code[i] = if same == OP_AND { OP_ANDN } else { OP_XNOR };
                                w.a[i] = keep;
                                w.b[i] = w.a[p];
                                w.imm[i] = w.imm[p];
                                absorb!(p, not_side);
                                fused_not = true;
                                break;
                            }
                        }
                    }
                    if fused_not {
                        continue;
                    }
                }
                // Same-op producer on either side widens to a 3-input op.
                let three = match same {
                    OP_AND => OP_AND3,
                    OP_OR => OP_OR3,
                    _ => OP_XOR3,
                };
                for (tree_side, keep) in [(x, y), (y, x)] {
                    if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, tree_side) {
                        if w.code[p] == same {
                            w.code[i] = three;
                            w.a[i] = w.a[p];
                            w.b[i] = w.b[p];
                            w.c[i] = keep;
                            absorb!(p, tree_side);
                            break;
                        }
                    }
                }
                // Bit-gate idiom: `x & slice(y, l, w)` in one dispatch.
                if w.code[i] == OP_AND {
                    for (slice_side, keep) in [(y, x), (x, y)] {
                        if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, slice_side) {
                            if w.code[p] == OP_SLICE {
                                w.code[i] = OP_ANDSHR;
                                w.a[i] = keep;
                                w.b[i] = w.a[p];
                                w.c[i] = w.c[p];
                                w.imm[i] = w.imm[p];
                                absorb!(p, slice_side);
                                break;
                            }
                        }
                    }
                }
            }
            OP_MUX => {
                let sel = w.a[i];
                if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, sel) {
                    match w.code[p] {
                        OP_EQ_IMM => {
                            w.code[i] = OP_MUX_EQI;
                            w.a[i] = w.a[p];
                            w.imm[i] = w.imm[p];
                            absorb!(p, sel);
                        }
                        OP_NE_IMM => {
                            w.code[i] = OP_MUX_EQI;
                            w.a[i] = w.a[p];
                            w.imm[i] = w.imm[p];
                            let (t, f) = (w.b[i], w.c[i]);
                            w.b[i] = f;
                            w.c[i] = t;
                            absorb!(p, sel);
                        }
                        OP_RED_AND => {
                            w.code[i] = OP_MUX_EQI;
                            w.a[i] = w.a[p];
                            w.imm[i] = w.imm[p];
                            absorb!(p, sel);
                        }
                        OP_RED_OR => {
                            // mux tests `!= 0` anyway — drop the reduction.
                            w.a[i] = w.a[p];
                            absorb!(p, sel);
                        }
                        // Select-tree idiom: the select is one extracted bit.
                        OP_SLICE if w.imm[p] == 1 => {
                            w.code[i] = OP_MUX_BIT;
                            w.a[i] = w.a[p];
                            w.imm[i] = w.c[p] as u64;
                            absorb!(p, sel);
                        }
                        OP_NOT if w.imm[p] == 1 => {
                            w.a[i] = w.a[p];
                            let (t, f) = (w.b[i], w.c[i]);
                            w.b[i] = f;
                            w.c[i] = t;
                            absorb!(p, sel);
                        }
                        _ => {}
                    }
                }
                // Counter idiom: the taken arm adds a constant to the other
                // arm — `mux(en, q + k, q)` becomes one guarded increment.
                if w.code[i] == OP_MUX {
                    let (t, f) = (w.b[i], w.c[i]);
                    if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, t) {
                        if w.code[p] == OP_ADD_IMM && w.a[p] == f {
                            w.code[i] = OP_INC_IF;
                            w.b[i] = f;
                            w.c[i] = w.c[p];
                            w.imm[i] = w.imm[p];
                            absorb!(p, t);
                            // The absorbed add's `f` reference merges with
                            // the mux's own else-arm reference.
                            cnt[f as usize] -= 1;
                        }
                    }
                }
            }
            OP_SLICE => {
                let x = w.a[i];
                let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, x) else {
                    continue;
                };
                if w.code[p] == OP_SLICE {
                    // slice(slice(y, l1) & m1, l2) & m2 = slice(y, l1+l2) &
                    // ((m1 >> l2) & m2); l1+l2 < 64 because the inner slice
                    // must still cover the outer range.
                    w.imm[i] &= w.imm[p] >> w.c[i];
                    w.c[i] += w.c[p];
                    w.a[i] = w.a[p];
                    absorb!(p, x);
                }
            }
            OP_CONCAT => {
                let (hi, lo) = (w.a[i], w.b[i]);
                let lo_w = w.c[i];
                // A CONCAT feeding a CONCAT (the left-fold `cat` chain)
                // collapses into a three-part CAT3 re-pack.
                if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, hi) {
                    if w.code[p] == OP_CONCAT {
                        // ((pa << pc) | pb) << lo_w | lo
                        w.imm[i] = u64::from(w.c[p]) | (u64::from(lo_w) << 8);
                        w.a[i] = w.a[p];
                        w.b[i] = w.b[p];
                        w.c[i] = lo;
                        w.code[i] = OP_CAT3;
                        absorb!(p, hi);
                        continue;
                    }
                }
                if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, lo) {
                    if w.code[p] == OP_CONCAT {
                        // (hi << lo_w) | (pa << pc) | pb, with the hi shift
                        // split as (hi << (lo_w - pc)) | pa, then << pc.
                        let pc = w.c[p];
                        w.imm[i] = u64::from(lo_w - pc) | (u64::from(pc) << 8);
                        w.b[i] = w.a[p];
                        w.c[i] = w.b[p];
                        w.code[i] = OP_CAT3;
                        absorb!(p, lo);
                        continue;
                    }
                }
                let hi_w = node_width(&nodes[w.dst[i] as usize]) as u32 - lo_w;
                let mut l1 = 0u32;
                let mut l2 = 0u32;
                let (mut na, mut nb) = (hi, lo);
                let mut any = false;
                if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, hi) {
                    if w.code[p] == OP_SLICE {
                        na = w.a[p];
                        l1 = w.c[p];
                        absorb!(p, hi);
                        any = true;
                    }
                }
                if let Some(p) = fusable(w, &dst_op, &cnt, ext_ref, lo) {
                    if w.code[p] == OP_SLICE {
                        nb = w.a[p];
                        l2 = w.c[p];
                        absorb!(p, lo);
                        any = true;
                    }
                }
                if any {
                    w.code[i] = OP_REPACK;
                    w.a[i] = na;
                    w.b[i] = nb;
                    w.c[i] = l1 | (l2 << 8) | (hi_w << 16) | (lo_w << 24);
                    w.imm[i] = 0;
                }
            }
            _ => {}
        }
    }

    // ---- pass B2: select-tree collapse ----
    // `Design::select` lowers an N-way readout into a balanced tree of
    // MUX_BITs testing successive selector bits; pass B has already turned
    // every interior mux into that shape. When a complete tree survives
    // with one consumer per interior mux and the same selector throughout,
    // the whole tree is a single table lookup — dst = leaves[sel & mask] —
    // and all 2^depth - 2 interior dispatches die. The reverse sweep hits
    // outermost roots first, so nested subtrees collapse into their
    // largest enclosing tree rather than fragmenting.
    for i in (0..w.code.len()).rev() {
        if w.killed[i] || w.code[i] != OP_MUX_BIT {
            continue;
        }
        let bit = w.imm[i];
        if !(1..=SELECT_MAX_BIT).contains(&bit) {
            continue;
        }
        let sel = w.a[i];
        let mut leaves = Vec::with_capacity(2usize << bit);
        let mut kill = Vec::new();
        // Selector order: bit clear → `c` arm, so the low half gathers first.
        let lo = w.c[i];
        let hi = w.b[i];
        if !gather_select_tree(
            w,
            &dst_op,
            &cnt,
            ext_ref,
            sel,
            lo,
            bit as i64 - 1,
            &mut leaves,
            &mut kill,
        ) || !gather_select_tree(
            w,
            &dst_op,
            &cnt,
            ext_ref,
            sel,
            hi,
            bit as i64 - 1,
            &mut leaves,
            &mut kill,
        ) {
            continue;
        }
        for &p in &kill {
            w.killed[p] = true;
            // The parent's reference to this mux's dst is gone; leaf arm
            // references transfer to the table unchanged, but each interior
            // mux also read the selector once.
            cnt[w.dst[p] as usize] -= 1;
            cnt[sel as usize] -= 1;
            stats.ops_fused += 1;
        }
        let start = w.tab.len() as u32;
        w.tab.extend_from_slice(&leaves);
        w.code[i] = OP_SELECT;
        w.b[i] = 0; // selector shift: gathered trees always bottom at bit 0
        w.c[i] = start;
        w.imm[i] = (leaves.len() - 1) as u64;
    }

    // ---- pass C: dead elision (reverse sweep, cascading) ----
    for i in (0..w.code.len()).rev() {
        if w.killed[i] {
            continue;
        }
        let dst = w.dst[i] as usize;
        if cnt[dst] == 0 && !ext_ref[dst] {
            kill_op(w, i, &mut cnt);
            stats.ops_elided += 1;
        }
    }
}

/// Visit each combinational operand of `node` (mirrors the simulator's
/// dependency rules: state nodes and memory contents are cycle boundaries).
pub(crate) fn for_each_operand(node: &Node, mut f: impl FnMut(u32)) {
    match node {
        Node::Input { .. } | Node::Const { .. } => {}
        Node::Unop { a, .. } | Node::Slice { a, .. } => f(*a),
        Node::Binop { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Node::Mux { sel, t, f: fe, .. } => {
            f(*sel);
            f(*t);
            f(*fe);
        }
        Node::Concat { hi, lo, .. } => {
            f(*hi);
            f(*lo);
        }
        Node::ReadPort {
            addr, sync: false, ..
        } => f(*addr),
        Node::Reg { .. } | Node::ReadPort { sync: true, .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repack_parts_round_trip() {
        let (l1, l2, w2) = (13u32, 7u32, 24u32);
        let w1 = 40u32;
        let c = l1 | (l2 << 8) | (w1 << 16) | (w2 << 24);
        let (rl1, rl2, rw2, m1, m2) = repack_parts(c);
        assert_eq!((rl1, rl2, rw2), (l1, l2, w2));
        assert_eq!(m1, mask64(w1));
        assert_eq!(m2, mask64(w2));
    }

    #[test]
    fn every_opcode_has_a_name() {
        for code in 0..=OP_SELECT {
            assert_ne!(op_name(code), "invalid", "opcode {code} unnamed");
        }
        assert_eq!(op_name(OP_SELECT + 1), "invalid");
    }

    #[test]
    fn exec_scalar_superop_semantics() {
        let vals = [0u64, 0b1100, 0b1010, 3];
        let mut val = |n: u32| vals[n as usize];
        let mut mem = |_: u32, _: u64| unreachable!();
        let m = mask64(4);
        assert_eq!(exec_scalar(OP_NAND, 1, 2, 0, m, &mut val, &mut mem), 0b0111);
        assert_eq!(exec_scalar(OP_NOR, 1, 2, 0, m, &mut val, &mut mem), 0b0001);
        assert_eq!(exec_scalar(OP_XNOR, 1, 2, 0, m, &mut val, &mut mem), 0b1001);
        assert_eq!(exec_scalar(OP_ANDN, 1, 2, 0, m, &mut val, &mut mem), 0b0100);
        assert_eq!(
            exec_scalar(OP_AND3, 1, 2, 3, 0, &mut val, &mut mem),
            0b1100 & 0b1010 & 3
        );
        assert_eq!(
            exec_scalar(OP_ADD_IMM, 1, NONE, 4, 7, &mut val, &mut mem),
            (0b1100 + 7) & 0xf
        );
        assert_eq!(
            exec_scalar(OP_EQ_IMM, 1, NONE, 0, 0b1100, &mut val, &mut mem),
            1
        );
        assert_eq!(
            exec_scalar(OP_NE_IMM, 1, NONE, 0, 0b1100, &mut val, &mut mem),
            0
        );
        assert_eq!(
            exec_scalar(OP_MUX_EQI, 1, 2, 3, 0b1100, &mut val, &mut mem),
            0b1010
        );
        assert_eq!(
            exec_scalar(OP_SHL_IMM, 3, NONE, 2, mask64(4), &mut val, &mut mem),
            0b1100
        );
        // repack: hi = vals[1][2..6) (w1=4, l1=2), lo = vals[2][1..4) (w2=3)
        let c = 2 | (1 << 8) | (4 << 16) | (3 << 24);
        assert_eq!(
            exec_scalar(OP_REPACK, 1, 2, c, 0, &mut val, &mut mem),
            (0b0011 << 3) | 0b101
        );
        // mux_bit: bit 3 of vals[1] = 1 → taken arm; bit 0 = 0 → else arm.
        assert_eq!(
            exec_scalar(OP_MUX_BIT, 1, 2, 3, 3, &mut val, &mut mem),
            0b1010
        );
        assert_eq!(exec_scalar(OP_MUX_BIT, 1, 2, 3, 0, &mut val, &mut mem), 3);
        // andshr: vals[1] & ((vals[2] >> 1) & 0b111)
        assert_eq!(
            exec_scalar(OP_ANDSHR, 1, 2, 1, 0b111, &mut val, &mut mem),
            0b1100 & 0b101
        );
        // cat3: ((vals[3] << 4) | vals[1]) << 4 | vals[2]
        assert_eq!(
            exec_scalar(OP_CAT3, 3, 1, 2, 4 | (4 << 8), &mut val, &mut mem),
            (3 << 8) | (0b1100 << 4) | 0b1010
        );
        // inc_if: vals[1] != 0 → (vals[2] + 7) & 0xf; vals[0] == 0 → pass-through.
        assert_eq!(
            exec_scalar(OP_INC_IF, 1, 2, 4, 7, &mut val, &mut mem),
            (0b1010 + 7) & 0xf
        );
        assert_eq!(
            exec_scalar(OP_INC_IF, 0, 2, 4, 7, &mut val, &mut mem),
            0b1010
        );
    }
}
