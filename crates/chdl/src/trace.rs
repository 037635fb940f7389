//! A small signal tracer for debugging designs from the host application,
//! in the spirit of CHDL's “use the original application to simulate the
//! designs”.

use crate::sim::Sim;
use std::fmt::Write as _;

/// Records named signal values cycle by cycle and renders them as an
/// ASCII table.
#[derive(Debug, Default)]
pub struct Tracer {
    names: Vec<String>,
    rows: Vec<(u64, Vec<u64>)>,
}

impl Tracer {
    /// A tracer watching the given named signals.
    pub fn new(names: &[&str]) -> Self {
        Tracer {
            names: names.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sample all watched signals from `sim` at its current cycle.
    pub fn sample(&mut self, sim: &mut Sim) {
        let values = self.names.iter().map(|n| sim.get(n)).collect();
        self.rows.push((sim.cycle(), values));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The recorded history of one signal.
    pub fn history(&self, name: &str) -> Vec<u64> {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("tracer does not watch '{name}'"));
        self.rows.iter().map(|(_, vals)| vals[idx]).collect()
    }

    /// Render the trace as a fixed-width hex table, one row per sample.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let widths: Vec<usize> = self.names.iter().map(|n| n.len().max(8)).collect();
        let _ = write!(out, "{:>8} ", "cycle");
        for (name, w) in self.names.iter().zip(&widths) {
            let _ = write!(out, "{name:>w$} ");
        }
        out.push('\n');
        for (cycle, vals) in &self.rows {
            let _ = write!(out, "{cycle:>8} ");
            for (v, w) in vals.iter().zip(&widths) {
                let hex = format!("{v:x}");
                let _ = write!(out, "{hex:>w$} ");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Design;

    fn counter_design() -> Design {
        let mut d = Design::new("t");
        let q = d.reg_feedback("c", 8, |d, q| d.inc(q));
        d.expose_output("count", q);
        d
    }

    #[test]
    fn records_history() {
        let d = counter_design();
        let mut sim = Sim::new(&d);
        let mut tr = Tracer::new(&["count"]);
        for _ in 0..5 {
            tr.sample(&mut sim);
            sim.step();
        }
        assert_eq!(tr.history("count"), [0, 1, 2, 3, 4]);
        assert_eq!(tr.len(), 5);
    }

    #[test]
    fn render_contains_header_and_values() {
        let d = counter_design();
        let mut sim = Sim::new(&d);
        let mut tr = Tracer::new(&["count"]);
        sim.run(16);
        tr.sample(&mut sim);
        let text = tr.render();
        assert!(text.contains("cycle"));
        assert!(text.contains("count"));
        assert!(
            text.contains("10"),
            "cycle 16's count renders as hex 10: {text}"
        );
    }

    #[test]
    #[should_panic(expected = "does not watch")]
    fn unknown_history_panics() {
        let tr = Tracer::new(&["a"]);
        tr.history("b");
    }
}
