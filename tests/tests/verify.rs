//! Integration tests for the static analyzer (`fem2-verify`) and its wiring
//! into the system: the pre-dispatch gate in `core::scenario`, the
//! `fem2-report --check` catalog, and the console VERIFY command.

use fem2_core::verify::{check_catalog, example_scenarios, layer_grammars, render_catalog};
use fem2_core::PlateScenario;
use fem2_machine::MachineConfig;
use fem2_verify::{check_grammar, check_script, Op, ScenarioScript, Severity};

fn initiate(s: &mut ScenarioScript, task: &str) {
    let task = s.intern(task);
    s.push(Op::Initiate {
        task,
        cluster: 0,
        replications: 1,
    });
}

fn open(s: &mut ScenarioScript, task: &str) {
    let [task, window] = [task, "halo"].map(|n| s.intern(n));
    s.push(Op::WindowOpen { task, window });
}

fn send(s: &mut ScenarioScript, from: &str, to: &str) {
    let [from, to, window] = [from, to, "halo"].map(|n| s.intern(n));
    s.push(Op::WindowSend {
        from,
        to,
        window,
        words: 8,
    });
}

fn recv(s: &mut ScenarioScript, task: &str, from: &str) {
    let [task, from, window] = [task, from, "halo"].map(|n| s.intern(n));
    s.push(Op::WindowRecv { task, from, window });
}

fn terminate(s: &mut ScenarioScript, task: &str) {
    let task = s.intern(task);
    s.push(Op::Terminate { task });
}

fn shutdown(s: &mut ScenarioScript, tasks: &[&str]) {
    for t in tasks {
        let [task, window] = [t, "halo"].map(|n| s.intern(n));
        s.push(Op::WindowClose { task, window });
        terminate(s, t);
    }
}

// ---------------------------------------------------------------------------
// Acceptance: a window-exchange cycle is statically rejected, naming the
// tasks involved, without ever executing the simulation.
// ---------------------------------------------------------------------------

#[test]
fn window_exchange_cycle_statically_rejected_with_tasks_named() {
    // Both tasks send first and receive second: the classic head-to-head
    // rendezvous deadlock. Everything else about the scenario is legal.
    let mut s = ScenarioScript::new("head-to-head");
    initiate(&mut s, "east");
    initiate(&mut s, "west");
    open(&mut s, "east");
    open(&mut s, "west");
    send(&mut s, "east", "west");
    send(&mut s, "west", "east");
    recv(&mut s, "west", "east");
    recv(&mut s, "east", "west");
    shutdown(&mut s, &["east", "west"]);

    let machine = MachineConfig::fem2_default();
    let report = check_script(&s, &machine);
    assert!(report.blocks(true), "deadlock must reject:\n{report}");
    let dl = report
        .diagnostics
        .iter()
        .find(|d| d.pass == "deadlock" && d.severity == Severity::Error)
        .unwrap_or_else(|| panic!("no deadlock error in:\n{report}"));
    assert!(dl.message.contains("deadlock"), "{}", dl.message);
    assert!(
        dl.message.contains("'east'") && dl.message.contains("'west'"),
        "diagnostic names the tasks: {}",
        dl.message
    );
    assert!(dl.span.is_some(), "diagnostic points into the description");
}

#[test]
fn three_task_exchange_ring_rejected_with_counterexample_chain() {
    let mut s = ScenarioScript::new("ring");
    for t in ["a", "b", "c"] {
        initiate(&mut s, t);
        open(&mut s, t);
    }
    send(&mut s, "a", "b");
    send(&mut s, "b", "c");
    send(&mut s, "c", "a");
    recv(&mut s, "b", "a");
    recv(&mut s, "c", "b");
    recv(&mut s, "a", "c");
    shutdown(&mut s, &["a", "b", "c"]);

    let report = check_script(&s, &MachineConfig::fem2_default());
    let dl = report
        .diagnostics
        .iter()
        .find(|d| d.pass == "deadlock")
        .unwrap_or_else(|| panic!("no deadlock finding in:\n{report}"));
    // The counterexample chain walks each rendezvous with its source line.
    assert!(dl.message.contains("then"), "{}", dl.message);
    assert!(dl.message.contains("line"), "{}", dl.message);
}

// ---------------------------------------------------------------------------
// Acceptance: a config whose worst-case storage bound exceeds cluster
// memory is rejected ahead of simulation, naming the cluster.
// ---------------------------------------------------------------------------

#[test]
fn storage_bound_over_cluster_memory_statically_rejected() {
    // 300x300 plate = 450k words of solver vectors across 4 clusters of
    // 64 Kwords each: hopeless, and the analyzer must say so by name.
    let scenario = PlateScenario::square(300, MachineConfig::fem1_style(4));
    let report = scenario.verify();
    assert!(report.blocks(true), "storage must reject:\n{report}");
    let st = report
        .diagnostics
        .iter()
        .find(|d| d.pass == "storage" && d.severity == Severity::Error)
        .unwrap_or_else(|| panic!("no storage error in:\n{report}"));
    assert!(st.message.contains("cluster"), "{}", st.message);
    assert!(st.message.contains("arena"), "{}", st.message);
    assert!(st.message.contains("words over"), "{}", st.message);

    // The gate turns that report into a rejected dispatch.
    let err = scenario.try_run().expect_err("try_run must reject");
    assert!(err.error_count() > 0);
}

// ---------------------------------------------------------------------------
// Acceptance: the verify pass runs by default before scenario dispatch.
// ---------------------------------------------------------------------------

#[test]
fn verify_gate_runs_before_dispatch_by_default() {
    let bad = PlateScenario::square(300, MachineConfig::fem1_style(4));
    let panic = std::panic::catch_unwind(|| bad.run());
    let msg = match panic {
        Ok(_) => panic!("run() must panic on a rejected scenario"),
        Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(
        msg.contains("rejected by static verification"),
        "panic carries the diagnostics: {msg}"
    );
    assert!(
        msg.contains("cluster"),
        "diagnostics name the cluster: {msg}"
    );
}

#[test]
fn clean_scenario_passes_gate_and_runs() {
    let scenario = PlateScenario::square(12, MachineConfig::fem2_default());
    assert!(scenario.verify().is_clean());
    let report = scenario.try_run().expect("clean scenario dispatches");
    assert!(report.iterations > 0);
}

#[test]
fn allow_warnings_lets_warning_only_scenarios_through() {
    let mut r = fem2_verify::Report::new("w", "");
    r.push(Severity::Warning, "storage", None, "tight fit");
    assert!(r.blocks(false));
    assert!(!r.blocks(true));
    // And the scenario knob wires through to the gate.
    let mut s = PlateScenario::square(12, MachineConfig::fem2_default());
    s.allow_warnings = true;
    assert!(s.try_run().is_ok());
}

// ---------------------------------------------------------------------------
// Acceptance: all seven examples and all four layer grammars pass clean.
// ---------------------------------------------------------------------------

#[test]
fn all_seven_example_scenarios_verify_clean() {
    let scenarios = example_scenarios();
    assert_eq!(scenarios.len(), 7);
    for (name, scenario) in scenarios {
        let report = scenario.verify();
        assert!(report.is_clean(), "{name} not clean:\n{report}");
    }
}

#[test]
fn all_four_layer_grammars_verify_clean() {
    let grammars = layer_grammars();
    assert_eq!(grammars.len(), 4);
    for (name, g) in grammars {
        let report = check_grammar(&g);
        assert!(report.is_clean(), "{name} grammar not clean:\n{report}");
    }
}

// ---------------------------------------------------------------------------
// Protocol pass through the kernel's exported automaton.
// ---------------------------------------------------------------------------

#[test]
fn traffic_to_never_initiated_task_rejected() {
    let mut s = ScenarioScript::new("ghost");
    initiate(&mut s, "real");
    let phantom = s.intern("phantom");
    s.push(Op::Resume { task: phantom });
    terminate(&mut s, "real");
    let report = check_script(&s, &MachineConfig::fem2_default());
    assert!(report.error_count() > 0, "{report}");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("'phantom'") && d.message.contains("uninitiated")),
        "{report}"
    );
}

#[test]
fn window_exchange_before_open_rejected() {
    let mut s = ScenarioScript::new("early");
    initiate(&mut s, "a");
    initiate(&mut s, "b");
    send(&mut s, "a", "b"); // neither side opened the window
    recv(&mut s, "b", "a");
    terminate(&mut s, "a");
    terminate(&mut s, "b");
    let report = check_script(&s, &MachineConfig::fem2_default());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.pass == "protocol" && d.message.contains("without opening")),
        "{report}"
    );
}

#[test]
fn diagnostics_span_into_the_scenario_description() {
    let mut s = ScenarioScript::new("spans");
    initiate(&mut s, "a"); // line 1
    let a = s.intern("a");
    s.push(Op::Resume { task: a }); // line 2: not paused
    terminate(&mut s, "a"); // line 3
    let report = check_script(&s, &MachineConfig::fem2_default());
    assert_eq!(report.error_count(), 1, "{report}");
    let d = &report.diagnostics[0];
    assert_eq!(d.span.map(|sp| sp.line), Some(2));
    // The renderer excerpts the offending description line.
    assert!(
        report.render().contains("| resume a"),
        "{}",
        report.render()
    );
}

// ---------------------------------------------------------------------------
// The --check catalog: deterministic, golden-pinned output.
// ---------------------------------------------------------------------------

#[test]
fn check_catalog_matches_committed_golden_file() {
    let golden = include_str!("../golden/verify_check.txt");
    let rendered = render_catalog(&check_catalog());
    assert_eq!(
        rendered, golden,
        "fem2-report --check output drifted from tests/golden/verify_check.txt; \
         regenerate with: cargo run --release -p fem2-bench --bin fem2-report -- --check"
    );
}

#[test]
fn check_catalog_json_matches_committed_golden_file() {
    let golden = include_str!("../golden/verify_check.json");
    let rendered = fem2_core::verify::catalog_json(&check_catalog());
    assert_eq!(
        rendered, golden,
        "fem2-report --check --json output drifted from tests/golden/verify_check.json; \
         regenerate with: cargo run --release -p fem2-bench --bin fem2-report -- --check --json"
    );
    // And the golden document is well-formed JSON with one subject per
    // catalog entry.
    let v: serde_json::Value = serde_json::from_str(golden).expect("golden is valid JSON");
    match v.get_field("subjects").expect("subjects field") {
        serde_json::Value::Arr(items) => assert_eq!(items.len(), 4 + 7),
        other => panic!("subjects must be an array, got {other:?}"),
    }
}

#[test]
fn check_catalog_is_deterministic_across_runs() {
    let a = render_catalog(&check_catalog());
    let b = render_catalog(&check_catalog());
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Console VERIFY command.
// ---------------------------------------------------------------------------

#[test]
fn console_verify_reports_clean_for_a_sane_model() {
    let mut session = fem2_appvm::Session::new(fem2_appvm::Database::in_memory());
    session.exec("DEFINE MODEL deck").unwrap();
    session.exec("GENERATE GRID 8 4").unwrap();
    let out = session.exec("VERIFY").unwrap();
    assert!(out.contains("CLEAN"), "{out}");
    assert!(out.contains("worst-case storage"), "{out}");
}

#[test]
fn console_verify_requires_a_model() {
    let mut session = fem2_appvm::Session::new(fem2_appvm::Database::in_memory());
    assert!(session.exec("VERIFY").is_err());
}

#[test]
fn console_verify_accepts_task_count() {
    let mut session = fem2_appvm::Session::new(fem2_appvm::Database::in_memory());
    session.exec("DEFINE MODEL deck").unwrap();
    session.exec("GENERATE GRID 6 6").unwrap();
    let out = session.exec("VERIFY TASKS 4").unwrap();
    assert!(out.contains("4 tasks"), "{out}");
    assert!(out.contains("CLEAN"), "{out}");
}

// ---------------------------------------------------------------------------
// The cost pass: sound upper bounds, proven against real runs.
// ---------------------------------------------------------------------------

#[test]
fn cost_bound_dominates_the_default_quickstart_run() {
    let s = PlateScenario::square(16, MachineConfig::fem2_default());
    let bound = fem2_core::verify::scenario_cost(&s);
    assert!(bound.is_bounded(), "{}", bound.render());
    let actual = s.run_unchecked();
    assert!(
        actual.elapsed <= bound.sim_cycles,
        "cycle bound {} must cover the actual {}",
        bound.sim_cycles,
        actual.elapsed
    );
    assert!(actual.total_messages <= bound.messages);
    assert!(actual.peak_memory_words <= bound.peak_memory_words);
}

#[test]
fn console_cost_renders_the_bound_table() {
    let mut session = fem2_appvm::Session::new(fem2_appvm::Database::in_memory());
    session.exec("DEFINE MODEL deck").unwrap();
    session.exec("GENERATE GRID 8 4").unwrap();
    let out = session.exec("COST").unwrap();
    assert!(out.contains("cost bounds for"), "{out}");
    assert!(out.contains("BOUNDED"), "{out}");
    let narrow = session.exec("COST TASKS 4").unwrap();
    assert!(narrow.contains("4 tasks"), "{narrow}");
}

mod cost_soundness {
    use super::*;
    use fem2_core::verify::scenario_cost;
    use fem2_machine::{RunBudget, Topology};
    use proptest::prelude::*;

    /// Every topology the cost pass bounds. Torus and fat-tree draws fix
    /// their own cluster count (see the test body): 2-D tori of 4 to 9
    /// clusters, 3-D tori of 8 or 12, fat trees of radix 2 or 3.
    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop_oneof![
            Just(Topology::Crossbar),
            Just(Topology::Bus),
            Just(Topology::Ring),
            (2u32..4).prop_map(|width| Topology::Mesh2D { width }),
            (2u32..4, 2u32..4).prop_map(|(a, b)| Topology::Torus { dims: vec![a, b] }),
            (2u32..4).prop_map(|c| Topology::Torus {
                dims: vec![2, 2, c]
            }),
            (2u32..4).prop_map(|radix| Topology::FatTree { radix }),
        ]
    }

    fn arb_budget() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), (500u64..200_000).prop_map(Some)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The acceptance property: no randomized scenario — budgeted or
        // not, on any topology — ever exceeds its static bound in cycles,
        // messages, or peak memory. (Plate runs drive the machine
        // directly and process zero DES events, so the event bound is
        // checked through the message bound it is derived from.)
        #[test]
        fn no_randomized_scenario_exceeds_its_static_bound(
            nx in 2usize..16,
            ny in 2usize..16,
            tasks in 1u32..12,
            clusters in 1u32..5,
            pes in 2u32..6,
            max_iters in 1usize..32,
            topology in arb_topology(),
            budget_cycles in arb_budget(),
        ) {
            // A mesh width must divide the cluster count; degrade invalid
            // draws to a 1-wide (column) mesh rather than rejecting them.
            // A torus has as many clusters as its dims multiply to; a fat
            // tree takes the drawn count as its number of pods.
            let (clusters, topology) = match topology {
                Topology::Mesh2D { width } if !clusters.is_multiple_of(width) => {
                    (clusters, Topology::Mesh2D { width: 1 })
                }
                Topology::Torus { dims } => (dims.iter().product(), Topology::Torus { dims }),
                Topology::FatTree { radix } => (radix * clusters, Topology::FatTree { radix }),
                t => (clusters, t),
            };
            let machine = MachineConfig::clustered(clusters, pes, topology);
            let mut s = PlateScenario::square(nx, machine);
            s.ny = ny;
            s.tasks = tasks;
            s.max_iters = max_iters;
            if let Some(c) = budget_cycles {
                s.budget = RunBudget::max_cycles(c);
            }
            let bound = scenario_cost(&s);
            prop_assert!(bound.is_bounded(), "{}", bound.render());
            prop_assert_eq!(bound.des_events, 2 * bound.messages);
            match s.run_budgeted() {
                Ok(r) => {
                    prop_assert!(
                        r.elapsed <= bound.sim_cycles,
                        "cycle bound {} < actual {} ({}x{}, {} tasks, {} clusters)",
                        bound.sim_cycles, r.elapsed, nx, ny, tasks, clusters
                    );
                    prop_assert!(
                        r.total_messages <= bound.messages,
                        "message bound {} < actual {}",
                        bound.messages, r.total_messages
                    );
                    prop_assert!(
                        2 * r.total_messages <= bound.des_events,
                        "event bound {} < 2x actual messages {}",
                        bound.des_events, r.total_messages
                    );
                    prop_assert!(
                        r.peak_memory_words <= bound.peak_memory_words,
                        "memory bound {} < actual {}",
                        bound.peak_memory_words, r.peak_memory_words
                    );
                }
                Err(aborted) => {
                    // A budgeted abort's observed progress is a prefix of
                    // the full run, so the bound still dominates it.
                    prop_assert!(
                        aborted.sim_cycles <= bound.sim_cycles,
                        "cycle bound {} < aborted progress {}",
                        bound.sim_cycles, aborted.sim_cycles
                    );
                    prop_assert!(aborted.des_events <= bound.des_events);
                }
            }
        }
    }
}
