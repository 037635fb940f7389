//! Shared random-netlist generator for the equivalence suites
//! (`engine_equiv.rs`, `lane_equiv.rs`).
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
/// dense/cascade sweeps and steady-state sweep mode, and its op→op runs
/// (NOT→AND, const sides, slice/concat re-packs) give the fusion pass
/// real absorption targets in a randomized setting.
#[allow(dead_code)] // each equivalence suite uses its own subset of netgen
pub fn build_design_with_chain(recipes: &[Recipe], depth: usize) -> (Design, Vec<String>) {
    let (mut d, mut outputs, pool) = build_pool(recipes);
    let seed = pool[pool.len() - 1];
    let mut cur = fit(&mut d, seed, IN_WIDTH);
    let x = fit(&mut d, pool[0], IN_WIDTH);
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
                fit(&mut d, g, IN_WIDTH)
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
    (d, outputs)
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

fn build_pool(recipes: &[Recipe]) -> (Design, Vec<String>, Vec<Signal>) {
    let mut d = Design::new("generated");
    let mut pool: Vec<Signal> = (0..N_INPUTS)
        .map(|i| d.input(format!("in{i}"), IN_WIDTH))
        .collect();
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
        let a = fit(&mut d, ra, IN_WIDTH);
        let b = fit(&mut d, rb, IN_WIDTH);
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
                fb.always(&mut d, s2, s0);
                let fsm = fb.build(&mut d);
                fsm.moore_output(
                    &mut d,
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
    let waddr_full = fit(&mut d, waddr_src, IN_WIDTH);
    let waddr = d.slice(waddr_full, 0, 5);
    let we = d.reduce_or(we_src);
    let wdata12 = fit(&mut d, wdata, IN_WIDTH);
    d.write_port(mem, waddr, wdata12, we);

    // Always observe at least one signal.
    if outputs.is_empty() {
        d.expose_output("o_last", pool[n - 1]);
        outputs.push("o_last".to_string());
    }
    (d, outputs, pool)
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
