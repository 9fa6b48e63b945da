//! Static verification of scenarios and layer grammars, wired into the
//! system: the catalog `fem2-report --check` walks, the lowering from
//! [`PlateScenario`] to the analyzer's script IR, and the named example
//! workloads.
//!
//! Every scenario is verified *before* dispatch (see
//! [`PlateScenario::run`]): the analyzer replays the scenario's message
//! sequence through the kernel's protocol automaton, matches its window
//! rendezvous for deadlock, and bounds its per-cluster storage — all
//! without simulating a cycle. A scenario that fails is rejected with
//! diagnostics naming the tasks and clusters involved.

use crate::layers::Layer;
use crate::scenario::{PlateScenario, ASSEMBLY_PROFILE_PER_ELEMENT, STRESS_PROFILE_PER_ELEMENT};
use fem2_kernel::WorkProfile;
use fem2_machine::{CostClass, MachineConfig, Topology};
use fem2_navm::{reduction_messages, TaskSet, PLATE_CG_ITERATION, PLATE_CG_SETUP};
use fem2_verify::lower::{solve_script, SolveShape};
use fem2_verify::{
    check_grammar, check_script, CostModeler, CostParams, CostReport, Report, ScenarioScript,
};

/// Lower a plate scenario to the analyzer's script IR. The script mirrors
/// what [`PlateScenario::run`] will ask of the kernel: one task per worker
/// block-mapped over the clusters, row-block vector storage, and red-black
/// halo exchanges between neighbouring tasks.
pub fn scenario_script(s: &PlateScenario) -> ScenarioScript {
    solve_script(
        format!("plate {}x{} on {}", s.nx, s.ny, s.machine.describe()),
        &s.machine,
        s.tasks,
        SolveShape {
            unknowns: (s.nx * s.ny) as u64,
            // One boundary row of the grid crosses each halo.
            halo_words: s.nx as u64,
        },
    )
}

/// Sound upper bounds for one plate scenario: the lowered script's spawn,
/// window-exchange (swept `max_iters` times), and allocation structure,
/// plus the numeric work the script does not carry — the per-element
/// assembly/stress profiles and the solver's elementwise and reduction
/// charges, each at its CG iteration cap.
///
/// Every number over-approximates what [`PlateScenario::run`] charges: the
/// serial sum of all charges dominates the barrier-synchronized actual
/// (see `fem2_verify::cost` for the argument), iteration-dependent work is
/// taken at `max_iters >= iterations`, the script's halo pairs are a
/// superset of the runtime's (shares of `nx*ny` versus shares of `ny`),
/// and the per-cluster allocations are the exact arena claims. The
/// soundness property test in `tests/tests/verify.rs` exercises this
/// against real runs over randomized scenarios.
pub fn scenario_cost(s: &PlateScenario) -> CostReport {
    let script = scenario_script(s);
    let params = CostParams {
        sweep_iters: s.max_iters.max(1) as u64,
    };
    let mut m = CostModeler::new(script.name.clone(), &s.machine);
    m.walk_script(&script, &params);

    let n = (s.nx * s.ny) as u64;
    let elements = ((s.nx - 1).max(1) * (s.ny - 1).max(1)) as u64;
    let tasks = u64::from(s.tasks);
    let iters = s.max_iters.max(1) as u64;
    // A parallel section, `times` over: a context switch per task, and
    // `per` work on each of `items` items.
    let section = |m: &mut CostModeler, per: WorkProfile, items: u64, times: u64| {
        let count = times.saturating_mul(items);
        m.charge(CostClass::ContextSwitch, times.saturating_mul(tasks));
        m.charge(CostClass::Flop, per.flops.saturating_mul(count));
        m.charge(CostClass::IntOp, per.int_ops.saturating_mul(count));
        m.charge(CostClass::MemWord, per.mem_words.saturating_mul(count));
    };

    m.begin_phase("assembly");
    section(&mut m, ASSEMBLY_PROFILE_PER_ELEMENT, elements, 1);

    m.begin_phase("solve");
    // `plate_cg`'s operations over the `n` unknowns, the setup once and
    // the iteration at its cap. The reductions' messages are routed once,
    // `reductions` times over; the stencil's halo exchange is the
    // script's window sweep above.
    let mut reductions = 0u64;
    for (ops, times) in [(&PLATE_CG_SETUP[..], 1), (&PLATE_CG_ITERATION[..], iters)] {
        for op in ops {
            section(&mut m, op.work(), n, times);
            if op.reduces() {
                reductions = reductions.saturating_add(times);
            }
        }
    }
    let crew = TaskSet::new(s.tasks.max(1), s.machine.clusters.max(1));
    let (peers, words) = reduction_messages(crew);
    for c in peers {
        m.message_times(c, 0, words, reductions);
        m.message_times(0, c, words, reductions);
    }

    m.begin_phase("stress");
    section(&mut m, STRESS_PROFILE_PER_ELEMENT, elements, 1);

    m.finish()
}

/// The four layer grammars, named, in layer order.
pub fn layer_grammars() -> Vec<(&'static str, std::sync::Arc<fem2_hgraph::Grammar>)> {
    Layer::ALL
        .iter()
        .map(|&layer| {
            let name = match layer {
                Layer::ApplicationUser => "application-user",
                Layer::NumericalAnalyst => "numerical-analyst",
                Layer::SystemProgrammer => "system-programmer",
                Layer::Hardware => "hardware",
            };
            (name, layer.grammar())
        })
        .collect()
}

/// Named scenarios mirroring each program under `examples/`: the workload
/// each example drives, expressed as the plate scenario the analyzer
/// checks. Kept in sync with the examples by the `verify` test suite.
pub fn example_scenarios() -> Vec<(&'static str, PlateScenario)> {
    vec![
        // quickstart: 32x32 plate on the default FEM-2 machine.
        (
            "quickstart",
            PlateScenario::square(32, MachineConfig::fem2_default()),
        ),
        // cantilever_plate: 40x12-element cantilever (41x13 grid points).
        ("cantilever_plate", {
            let mut s = PlateScenario::square(41, MachineConfig::fem2_default());
            s.ny = 13;
            s
        }),
        // substructure_wing: 48x6-element wing skin (49x7 grid points).
        ("substructure_wing", {
            let mut s = PlateScenario::square(49, MachineConfig::fem2_default());
            s.ny = 7;
            s
        }),
        // command_session: the 12x4 bridge-deck grid (13x5 points).
        ("command_session", {
            let mut s = PlateScenario::square(13, MachineConfig::fem2_default());
            s.ny = 5;
            s
        }),
        // design_space: the sweep's machine-wide problem on the selected
        // clustered organization.
        (
            "design_space",
            PlateScenario::square(32, MachineConfig::fem2_default()),
        ),
        // multi_user: one user's 24x24 problem confined to a single cluster.
        (
            "multi_user",
            PlateScenario::square(24, MachineConfig::clustered(1, 8, Topology::Crossbar)),
        ),
        // formal_spec: the small demonstration model (4x2 elements).
        ("formal_spec", {
            let mut s = PlateScenario::square(5, MachineConfig::fem2_default());
            s.ny = 3;
            s
        }),
    ]
}

/// Run the whole check catalog: the four layer grammars, then the seven
/// example scenarios. Deterministic order and content.
pub fn check_catalog() -> Vec<Report> {
    let mut reports: Vec<Report> = layer_grammars()
        .iter()
        .map(|(_, g)| check_grammar(g))
        .collect();
    for (_, scenario) in example_scenarios() {
        let script = scenario_script(&scenario);
        reports.push(check_script(&script, &scenario.machine));
    }
    reports
}

/// Static cost bounds for every example scenario, in catalog order, each
/// at its CG iteration cap.
pub(crate) fn catalog_costs() -> Vec<(&'static str, CostReport)> {
    example_scenarios()
        .iter()
        .map(|(name, scenario)| (*name, scenario_cost(scenario)))
        .collect()
}

/// Render the catalog's cost bounds as the `fem2-report --check` table.
pub(crate) fn render_cost_table(costs: &[(&str, CostReport)]) -> String {
    let mut out = String::from(
        "COST BOUNDS (sound upper bounds per example scenario, at the CG iteration cap)\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:>16} {:>12} {:>10} {:>10}  {}\n",
        "scenario", "sim cycles", "DES events", "messages", "peak mem", "verdict"
    ));
    for (name, c) in costs {
        let verdict = match &c.verdict {
            fem2_verify::CostVerdict::Bounded => "bounded".to_string(),
            fem2_verify::CostVerdict::Unbounded { span, .. } => {
                format!("UNBOUNDED (line {})", span.line)
            }
        };
        out.push_str(&format!(
            "{name:<18} {:>16} {:>12} {:>10} {:>10}  {verdict}\n",
            c.sim_cycles, c.des_events, c.messages, c.peak_memory_words
        ));
    }
    out
}

/// Render a catalog run as the `fem2-report --check` output.
pub fn render_catalog(reports: &[Report]) -> String {
    let mut out =
        String::from("FEM-2 static verification (4 layer grammars + 7 example scenarios)\n\n");
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    out.push_str(&render_cost_table(&catalog_costs()));
    out.push('\n');
    let errors: usize = reports.iter().map(Report::error_count).sum();
    let warnings: usize = reports.iter().map(Report::warning_count).sum();
    out.push_str(&format!(
        "TOTAL: {} subject(s), {} error(s), {} warning(s)\n",
        reports.len(),
        errors,
        warnings
    ));
    out
}

/// Render a catalog run as a machine-readable JSON document: the schema
/// tag, every subject report in [`fem2_verify::Report`]'s JSON form, and
/// the catalog-wide counts. This is the same representation the serve
/// layer returns in HTTP rejection bodies, so one consumer handles both.
pub fn catalog_json(reports: &[Report]) -> String {
    use serde::json::Value;
    use serde::Serialize as _;
    let errors: usize = reports.iter().map(Report::error_count).sum();
    let warnings: usize = reports.iter().map(Report::warning_count).sum();
    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str("fem2-verify/2".into())),
        (
            "subjects".into(),
            Value::Arr(reports.iter().map(|r| r.to_value()).collect()),
        ),
        (
            "cost".into(),
            Value::Arr(
                catalog_costs()
                    .iter()
                    .map(|(name, c)| {
                        let Value::Obj(mut fields) = c.to_value() else {
                            unreachable!("cost reports serialize as objects")
                        };
                        fields.insert(0, ("scenario".into(), Value::Str((*name).into())));
                        Value::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        ("errors".into(), Value::UInt(errors as u64)),
        ("warnings".into(), Value::UInt(warnings as u64)),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("catalog has no non-finite floats");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_clean_and_deterministic() {
        let a = check_catalog();
        assert_eq!(a.len(), 4 + 7);
        for r in &a {
            assert!(r.is_clean(), "{}", r.render());
        }
        let b = check_catalog();
        assert_eq!(render_catalog(&a), render_catalog(&b));
    }

    #[test]
    fn catalog_json_is_valid_and_counts_subjects() {
        let reports = check_catalog();
        let text = catalog_json(&reports);
        let v: serde::json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            v.get_field("schema").unwrap(),
            &serde::json::Value::Str("fem2-verify/2".into())
        );
        match v.get_field("subjects").unwrap() {
            serde::json::Value::Arr(items) => assert_eq!(items.len(), reports.len()),
            other => panic!("subjects must be an array, got {other:?}"),
        }
        assert_eq!(v.get_field("errors").unwrap(), &serde::json::Value::UInt(0));
    }

    #[test]
    fn scenario_script_names_the_machine() {
        let s = PlateScenario::square(8, MachineConfig::fem2_default());
        let script = scenario_script(&s);
        assert!(script.name.contains("plate 8x8"));
        assert!(script.name.contains("crossbar"));
        assert!(!script.is_empty());
    }

    #[test]
    fn layer_grammars_cover_all_four_layers() {
        let gs = layer_grammars();
        let names: Vec<&str> = gs.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "application-user",
                "numerical-analyst",
                "system-programmer",
                "hardware"
            ]
        );
        for (name, g) in gs {
            assert!(g.rule_count() > 0, "{name} grammar is empty");
            assert!(g.start().is_some(), "{name} grammar has a start symbol");
        }
    }
}
