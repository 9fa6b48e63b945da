//! The paper's headline, end to end: run the FEM-2 design method — formal
//! layer stack, simulated scenario measurements, requirements-driven
//! iteration — and verify it reaches the paper's own conclusion: a
//! clustered organization, not a flat array.

use fem2_core::machine::MachineConfig;
use fem2_core::scenario::PlateScenario;
use fem2_core::{DesignSpace, Layer};

fn quick_space() -> DesignSpace {
    let mut space = DesignSpace::standard_sweep();
    // Reduced sizes keep the full sweep fast in CI.
    space.requirements.small_n = 10;
    space.requirements.large_n = 16;
    space
}

#[test]
fn the_method_reaches_the_papers_conclusion() {
    // 1. The formal design exists and is complete.
    assert_eq!(Layer::ALL.len(), 4);
    for layer in Layer::ALL {
        // Every layer's grammar renders as BNF with at least one production.
        let bnf = layer.grammar().to_bnf();
        assert!(bnf.contains("::="), "{}", layer.name());
    }

    // 2. The iteration selects a feasible clustered organization.
    let space = quick_space();
    let trace = space.iterate();
    let best = trace.best();
    assert!(best.feasible);
    assert!(
        best.config.clusters > 1,
        "clustered: {}",
        best.config.describe()
    );
    assert!(
        best.config.pes_per_cluster > 1,
        "not a flat array: {}",
        best.config.describe()
    );

    // 3. It beats every FEM-1-style flat candidate that was feasible.
    for cand in &trace.evaluated {
        if cand.config.pes_per_cluster == 1 && cand.feasible {
            assert!(
                best.makespan < cand.makespan,
                "winner {} vs flat {}",
                best.makespan,
                cand.makespan
            );
        }
    }

    // 4. Convergence curve is monotone and ends at the winner's score.
    for w in trace.best_so_far.windows(2) {
        assert!(w[1] <= w[0]);
    }
    assert_eq!(*trace.best_so_far.last().unwrap(), best.score());

    // 5. The winning organization actually runs the application: the
    //    scenario converges and produces all three requirement families.
    let report = PlateScenario::square(16, best.config.clone()).run();
    assert!(report.converged);
    assert!(report.total_flops > 0);
    assert!(report.total_messages > 0);
    assert!(report.peak_memory_words > 0);
}

#[test]
fn the_selected_machine_is_the_fem2_default_shape() {
    // At the full requirement sizes the method selects 4x8-crossbar — the
    // `fem2_default` preset. At the reduced test sizes the exact winner may
    // differ in PE count but must stay clustered; this test pins the
    // preset's own viability instead: it is feasible and near-optimal.
    let space = quick_space();
    let preset = space.evaluate(MachineConfig::fem2_default());
    assert!(preset.feasible);
    let trace = space.iterate();
    let best = trace.best();
    // The preset is within 25% of the best candidate at reduced sizes.
    assert!(
        (preset.makespan as f64) <= 1.25 * best.makespan as f64,
        "preset {} vs best {}",
        preset.makespan,
        best.makespan
    );
}

#[test]
fn requirement_tables_scale_sanely_on_the_winner() {
    let report_small = PlateScenario::square(12, MachineConfig::fem2_default()).run();
    let report_large = PlateScenario::square(24, MachineConfig::fem2_default()).run();
    // Four requirement families all grow with problem size.
    assert!(report_large.total_flops > report_small.total_flops);
    assert!(report_large.total_words_moved > report_small.total_words_moved);
    assert!(report_large.total_memory_words > report_small.total_memory_words);
    assert!(report_large.elapsed > report_small.elapsed);
    // And the per-phase structure is assembly -> solve -> stress.
    let names: Vec<&str> = report_large
        .phases
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, ["assembly", "solve", "stress"]);
}
