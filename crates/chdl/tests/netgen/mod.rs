//! Shared random-netlist generator for the equivalence suites
//! (`engine_equiv.rs`, `netopt_equiv.rs`).
//!
//! Grows a design from a list of [`Recipe`]s covering arithmetic, logic,
//! muxes, slices, concats, registers (with enables/clears), FSMs and a
//! memory with a write port plus async and sync read ports — every node
//! kind the engines must agree on.

use atlantis_chdl::prelude::*;

/// One generated component: `(kind, a, b, aux)`. Operand selectors are
/// reduced modulo the current signal pool.
pub type Recipe = (u8, u16, u16, u8);

pub const N_INPUTS: usize = 4;
pub const IN_WIDTH: u8 = 12;
pub const MEM_WORDS: usize = 32;

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

/// Grow a design from recipes. Every generated signal goes into the pool so
/// later components can reference it; a rolling subset is exposed as outputs.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn build_design(recipes: &[Recipe]) -> (Design, Vec<String>) {
    let (d, outputs, _) = build_pool(recipes);
    (d, outputs)
}

/// Like [`build_design`], then grow a deep combinational chain of `depth`
/// ops from the pool, exposed as `chain_out`. The chain drives level
/// counts far past the recipe mix alone, exercising the engines'
/// per-level drains and dense sweeps, and its op→op runs (NOT→AND, const
/// sides, slice/concat re-packs) give the fusion pass real absorption
/// targets in a randomized setting.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn build_design_with_chain(recipes: &[Recipe], depth: usize) -> (Design, Vec<String>) {
    let (mut d, mut outputs, pool) = build_pool(recipes);
    grow_chain(&mut d, &pool, depth, &mut outputs);
    (d, outputs)
}

/// Grow a `depth`-op mixed chain seeded from the pool's freshest entry,
/// one fusion shape per step, exposed as `chain_out`.
fn grow_chain(d: &mut Design, pool: &[Signal], depth: usize, outputs: &mut Vec<String>) {
    let seed = pool[pool.len() - 1];
    let mut cur = fit(d, seed, IN_WIDTH);
    let x = fit(d, pool[0], IN_WIDTH);
    for k in 0..depth {
        cur = match k % 10 {
            0 => d.add(cur, x),
            1 => {
                // NOT feeding AND — the ANDN superop shape.
                let n = d.not(cur);
                d.and(n, x)
            }
            2 => d.xor(cur, x),
            3 => {
                // Constant operand — the OR_IMM peephole shape.
                let c = d.lit((k as u64).wrapping_mul(0x9E37) & 0x7FF, IN_WIDTH);
                d.or(cur, c)
            }
            4 => {
                // Slice+concat — the REPACK superop shape.
                let hi = d.slice(cur, 6, 6);
                let lo = d.slice(cur, 0, 6);
                d.concat(hi, lo)
            }
            5 => {
                let s = d.eq(cur, x);
                d.mux(s, cur, x)
            }
            6 => {
                // AND of two bit-extracts — the ANDSHR superop shape.
                let cb = d.bit(cur, ((k / 7) % usize::from(IN_WIDTH)) as u8);
                let xb = d.bit(x, (k % usize::from(IN_WIDTH)) as u8);
                let g = d.and(cb, xb);
                fit(d, g, IN_WIDTH)
            }
            7 => {
                // A 1-bit slice selecting a mux — the MUX_BIT shape.
                let s = d.bit(cur, ((k / 10) % usize::from(IN_WIDTH)) as u8);
                d.mux(s, x, cur)
            }
            8 => {
                // CONCAT feeding CONCAT — the CAT3 left-fold `cat` shape.
                let a = d.slice(cur, 8, 4);
                let b = d.slice(cur, 4, 4);
                let c = d.slice(cur, 0, 4);
                d.cat(&[a, b, c])
            }
            _ => {
                // Guarded counter increment — the INC_IF shape.
                let en = d.bit(x, (k % usize::from(IN_WIDTH)) as u8);
                let one = d.lit(1 + (k as u64 % 5), IN_WIDTH);
                let inc = d.add(cur, one);
                d.mux(en, inc, cur)
            }
        };
    }
    d.expose_output("chain_out", cur);
    outputs.push("chain_out".to_string());
}

/// Like [`build_design`], then graft `shapes` deliberately redundant
/// structures onto the pool: dead cones nothing consumes, duplicated
/// subexpressions elaborated twice from scratch, constant-only cones,
/// identity chains (`x+0`, `x*1`, `x&mask`, `mux(s,x,x)`) and
/// `dont_touch`-pinned nodes (some of them dead). This is the netlist
/// optimizer's diet: every shape is a target for exactly one pass
/// (dead-gate elimination, subexpression sharing, constant folding),
/// while the pinned nodes must survive all of them.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn build_design_with_redundancy(recipes: &[Recipe], shapes: usize) -> (Design, Vec<String>) {
    let (mut d, mut outputs, pool) = build_pool(recipes);
    for k in 0..shapes {
        let ra = pool[k % pool.len()];
        let rb = pool[(k * 7 + 3) % pool.len()];
        let x = fit(&mut d, ra, IN_WIDTH);
        let y = fit(&mut d, rb, IN_WIDTH);
        match k % 5 {
            0 => {
                // Dead cone: three chained ops, never consumed.
                let a = d.mul(x, y);
                let b = d.sub(a, x);
                let _dead = d.xor(b, y);
            }
            1 => {
                // The same subtree elaborated twice — CSE bait. Both
                // copies feed an output so sharing must stay sound.
                let mut arms = Vec::new();
                for _ in 0..2 {
                    let p = d.xor(x, y);
                    let q = d.and(x, y);
                    arms.push(d.add(p, q));
                }
                let z = d.or(arms[0], arms[1]);
                let name = format!("dup{k}");
                d.expose_output(&name, z);
                outputs.push(name);
            }
            2 => {
                // Constant-only cone feeding live logic: folds to one
                // literal, then the add's const side becomes an imm.
                let c1 = d.lit(0x0ff & (k as u64 + 1), IN_WIDTH);
                let c2 = d.lit(0x321, IN_WIDTH);
                let c3 = d.mul(c1, c2);
                let c4 = d.xor(c3, c1);
                let z = d.add(x, c4);
                let name = format!("konst{k}");
                d.expose_output(&name, z);
                outputs.push(name);
            }
            3 => {
                // Identity chain: every link aliases back to `x`.
                let zero = d.lit(0, IN_WIDTH);
                let ones = d.lit(0xFFF, IN_WIDTH);
                let one = d.lit(1, IN_WIDTH);
                let i1 = d.add(x, zero);
                let i2 = d.mul(i1, one);
                let i3 = d.and(i2, ones);
                let s = d.reduce_xor(y);
                let z = d.mux(s, i3, i3); // mux of identical arms
                let name = format!("ident{k}");
                d.expose_output(&name, z);
                outputs.push(name);
            }
            _ => {
                // Pinned nodes: a live probe target and a dead gate that
                // only `dont_touch` keeps alive.
                let g = d.and(x, y);
                let probe = d.not(g);
                d.set_dont_touch(probe);
                d.label(format!("pin{k}"), probe);
                let dead_pin = d.sub(y, x);
                d.set_dont_touch(dead_pin);
            }
        }
    }
    (d, outputs)
}

/// Ops per level of [`build_wide_design`].
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub const WIDE_SPAN: usize = 160;
/// Input-fed levels of [`build_wide_design`]; level `k` reads inputs
/// `w{k}` (its first half) and `v{k}` (its second half).
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub const WIDE_LEVELS: usize = 4;
/// Levels of neighbour-mixing tail behind the input-fed levels.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub const WIDE_TAIL: usize = 12;

/// Depth of the mixed-op chain [`build_wide_design`] hangs below its pool.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub const WIDE_CHAIN: usize = 40;

/// A design built for the adaptive evaluator's wide-level branches:
/// [`WIDE_LEVELS`] input-fed levels, then a [`WIDE_TAIL`]-level tail, every
/// level [`WIDE_SPAN`] ops wide. Column `i` of input level `k` combines
/// column `i` of level `k - 1` with `w{k}` (first half) or `v{k}` (second
/// half), so changing one input queues half a level (the dense sweep) and
/// changing both queues all of it (the cascade). Each tail op mixes its
/// column with the next one, so a change widens by one column per level.
/// Ops alternate between ADD and XOR, which fusion never merges, and the
/// last level is exposed as outputs `out{i}`.
///
/// Below the tail hangs a random netlist: the recipe pool of
/// [`build_design`], its four base signals taken from registered tail
/// outputs instead of inputs, then a [`WIDE_CHAIN`]-op mixed chain. The
/// registers restart the pool's logic at level 0, so its short mixed-op
/// segments share levels with the wide ones, and a cascade entering
/// mid-stream must run the packed tail blocks pending at its entry level
/// as well as the wide levels' run blocks.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn build_wide_design(recipes: &[Recipe]) -> (Design, Vec<String>) {
    let mut d = Design::new("wide");
    let half = WIDE_SPAN / 2;
    let mut cols: Vec<Signal> = Vec::new();
    for k in 0..WIDE_LEVELS {
        let w = d.input(format!("w{k}"), IN_WIDTH);
        let v = d.input(format!("v{k}"), IN_WIDTH);
        cols = (0..WIDE_SPAN)
            .map(|i| {
                let x = if i < half { w } else { v };
                if k == 0 {
                    let c = d.lit((i as u64).wrapping_mul(0x9E37) & 0xFFF, IN_WIDTH);
                    d.add(x, c)
                } else if k % 2 == 1 {
                    d.xor(cols[i], x)
                } else {
                    d.add(cols[i], x)
                }
            })
            .collect();
    }
    for t in 0..WIDE_TAIL {
        cols = (0..WIDE_SPAN)
            .map(|i| {
                let next = cols[(i + 1) % WIDE_SPAN];
                if t % 2 == 0 {
                    d.add(cols[i], next)
                } else {
                    d.xor(cols[i], next)
                }
            })
            .collect();
    }
    let mut outputs: Vec<String> = (0..WIDE_SPAN).map(|i| format!("out{i}")).collect();
    for (name, &sig) in outputs.iter().zip(&cols) {
        d.expose_output(name, sig);
    }
    let base = (0..N_INPUTS)
        .map(|i| d.reg(format!("tap{i}"), cols[i * WIDE_SPAN / N_INPUTS]))
        .collect();
    let (pool_outputs, pool) = grow_pool(&mut d, base, recipes);
    outputs.extend(pool_outputs);
    grow_chain(&mut d, &pool, WIDE_CHAIN, &mut outputs);
    (d, outputs)
}

/// The input ports of [`build_wide_design`], in level order.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn wide_inputs() -> Vec<String> {
    (0..WIDE_LEVELS)
        .flat_map(|k| [format!("w{k}"), format!("v{k}")])
        .collect()
}

fn build_pool(recipes: &[Recipe]) -> (Design, Vec<String>, Vec<Signal>) {
    let mut d = Design::new("generated");
    let base = (0..N_INPUTS)
        .map(|i| d.input(format!("in{i}"), IN_WIDTH))
        .collect();
    let (outputs, pool) = grow_pool(&mut d, base, recipes);
    (d, outputs, pool)
}

/// Grow the recipe pool from `base` signals (plus two constants), wire a
/// memory write port from its freshest entries and expose a rolling
/// subset as outputs. Returns the output names and the pool.
fn grow_pool(d: &mut Design, base: Vec<Signal>, recipes: &[Recipe]) -> (Vec<String>, Vec<Signal>) {
    let mut pool = base;
    let c1 = d.lit(0x5a5, IN_WIDTH);
    let c2 = d.lit(1, IN_WIDTH);
    pool.push(c1);
    pool.push(c2);

    // One memory with a write port and both read-port flavours, driven by
    // generated signals so its traffic depends on the whole netlist.
    let mem = d.memory("m", MEM_WORDS, IN_WIDTH);

    let mut outputs = Vec::new();
    for (i, &(kind, a_sel, b_sel, aux)) in recipes.iter().enumerate() {
        let ra = pool[a_sel as usize % pool.len()];
        let rb = pool[b_sel as usize % pool.len()];
        // Binary components need matching widths; coerce to the nominal
        // width (slices keep narrower signals flowing through the pool).
        let a = fit(d, ra, IN_WIDTH);
        let b = fit(d, rb, IN_WIDTH);
        let sig = match kind % 19 {
            0 => d.add(a, b),
            1 => d.sub(a, b),
            2 => d.mul(a, b),
            3 => d.and(a, b),
            4 => d.or(a, b),
            5 => d.xor(a, b),
            6 => d.not(ra),
            7 => d.eq(a, b),
            8 => d.lt(a, b),
            9 => {
                let sel = d.reduce_xor(rb);
                d.mux(sel, a, b)
            }
            10 => {
                let lo = aux % ra.width();
                let width = 1 + (aux / 16) % (ra.width() - lo);
                d.slice(ra, lo, width)
            }
            11 => {
                if ra.width() + rb.width() <= 32 {
                    d.concat(ra, rb)
                } else {
                    d.xor(a, b)
                }
            }
            12 => {
                let amt = d.slice(b, 0, 3);
                d.shl(a, amt)
            }
            13 => {
                let amt = d.slice(b, 0, 3);
                d.shr(a, amt)
            }
            14 => d.reg(format!("r{i}"), a),
            15 => {
                // Register with enable and clear, init from aux.
                let en = d.reduce_or(rb);
                let clr = d.eq(a, b);
                d.reg_full(format!("rf{i}"), a, Some(en), Some(clr), u64::from(aux))
            }
            16 => {
                let addr = d.slice(a, 0, 5);
                d.read_async(mem, addr)
            }
            17 => {
                let addr = d.slice(b, 0, 5);
                d.read_sync(mem, addr)
            }
            _ => {
                // A small FSM whose guards are driven by the pool —
                // state machines are CHDL's second entry form and
                // exercise the eq-const / mux-chain shapes the builder
                // emits, observed through a Moore output.
                let mut fb = FsmBuilder::new(format!("f{i}"));
                let s0 = fb.state("idle");
                let s1 = fb.state("busy");
                let s2 = fb.state("done");
                let g01 = d.reduce_or(a);
                let g12 = d.reduce_xor(b);
                fb.transition(s0, g01, s1);
                fb.transition(s1, g12, s2);
                fb.always(d, s2, s0);
                let fsm = fb.build(d);
                fsm.moore_output(
                    d,
                    &[u64::from(aux), 0x0F0, 0x5A5 ^ u64::from(aux)],
                    IN_WIDTH,
                )
            }
        };
        pool.push(sig);
        if i % 3 == 0 {
            let name = format!("o{i}");
            d.expose_output(&name, sig);
            outputs.push(name);
        }
    }

    // Wire the write port from the freshest pool entries.
    let n = pool.len();
    let waddr_src = pool[n - 1];
    let wdata = pool[n - 2];
    let we_src = pool[n - 3];
    let waddr_full = fit(d, waddr_src, IN_WIDTH);
    let waddr = d.slice(waddr_full, 0, 5);
    let we = d.reduce_or(we_src);
    let wdata12 = fit(d, wdata, IN_WIDTH);
    d.write_port(mem, waddr, wdata12, we);

    // Always observe at least one signal.
    if outputs.is_empty() {
        d.expose_output("o_last", pool[n - 1]);
        outputs.push("o_last".to_string());
    }
    (outputs, pool)
}

/// Cheap deterministic stimulus shared across all sims in a case.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}
