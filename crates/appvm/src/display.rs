//! Result display: textual tables for the interactive console.

use fem2_fem::{Analysis, StructuralModel};
use std::fmt::Write as _;

/// One-paragraph model summary.
pub(crate) fn model_summary(m: &StructuralModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "model {}", m.name);
    let _ = writeln!(
        out,
        "  nodes: {}  elements: {}  dofs: {}",
        m.mesh.node_count(),
        m.mesh.element_count(),
        m.dof_count()
    );
    let _ = writeln!(
        out,
        "  material: E = {:.3e}, nu = {}, t = {}",
        m.material.e, m.material.nu, m.material.thickness
    );
    let _ = writeln!(
        out,
        "  supports: {} fixed dofs",
        m.constraints.fixed_count()
    );
    let _ = writeln!(out, "  load sets: {}", m.load_sets.len());
    for ls in &m.load_sets {
        let _ = writeln!(out, "    {} ({} loads)", ls.name, ls.len());
    }
    out
}

/// Nodal displacement table (largest `max_rows` magnitudes first).
pub(crate) fn displacement_table(m: &StructuralModel, a: &Analysis, max_rows: usize) -> String {
    let mut rows: Vec<(usize, f64, f64, f64)> = (0..m.mesh.node_count())
        .map(|n| {
            let (u, v) = a.node_displacement(n);
            (n, u, v, (u * u + v * v).sqrt())
        })
        .collect();
    rows.sort_by(|x, y| y.3.total_cmp(&x.3));
    let mut out = String::new();
    let _ = writeln!(out, "{:>6} {:>14} {:>14} {:>14}", "node", "u", "v", "|d|");
    for (n, u, v, d) in rows.into_iter().take(max_rows) {
        let _ = writeln!(out, "{n:>6} {u:>14.6e} {v:>14.6e} {d:>14.6e}");
    }
    let _ = writeln!(out, "max displacement: {:.6e}", a.max_displacement());
    out
}

/// Element stress table (largest `max_rows` von Mises first).
pub(crate) fn stress_table(a: &Analysis, max_rows: usize) -> String {
    let mut rows: Vec<(usize, f64, f64, f64, f64)> = a
        .stresses
        .iter()
        .enumerate()
        .map(|(e, s)| (e, s.sx, s.sy, s.txy, s.von_mises()))
        .collect();
    rows.sort_by(|x, y| y.4.total_cmp(&x.4));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>13} {:>13} {:>13} {:>13}",
        "elem", "sx", "sy", "txy", "von Mises"
    );
    for (e, sx, sy, txy, vm) in rows.into_iter().take(max_rows) {
        let _ = writeln!(
            out,
            "{e:>6} {sx:>13.4e} {sy:>13.4e} {txy:>13.4e} {vm:>13.4e}"
        );
    }
    let _ = writeln!(out, "max von Mises: {:.6e}", a.max_von_mises());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_fem::{cantilever_plate, SolverChoice};

    #[test]
    fn summary_mentions_counts() {
        let m = cantilever_plate(4, 2, -1e4);
        let s = model_summary(&m);
        assert!(s.contains("nodes: 15"));
        assert!(s.contains("elements: 8"));
        assert!(s.contains("tip (1 loads)"));
    }

    #[test]
    fn tables_render_and_rank() {
        let m = cantilever_plate(6, 2, -1e4);
        let a = m.analyze(0, SolverChoice::Skyline).unwrap();
        let dt = displacement_table(&m, &a, 5);
        assert_eq!(dt.lines().count(), 7, "header + 5 rows + max line");
        assert!(dt.contains("max displacement"));
        let st = stress_table(&a, 3);
        assert!(st.contains("von Mises"));
        assert_eq!(st.lines().count(), 5);
    }

    #[test]
    fn tables_clamp_to_available_rows() {
        let m = cantilever_plate(2, 1, -1e3);
        let a = m.analyze(0, SolverChoice::Skyline).unwrap();
        let dt = displacement_table(&m, &a, 1000);
        assert_eq!(dt.lines().count(), 1 + m.mesh.node_count() + 1);
    }
}
