//! Interactive sessions: direct interpretation of user commands.
//!
//! A [`Session`] owns one `Workspace` and shares a [`Database`] with any
//! number of other sessions (the multi-user requirement). `exec` interprets
//! one command line and returns its console output; scripts are just
//! sequences of lines.

use crate::command::{self, Command, DisplayWhat, Edge, GridKind, TraceAction};
use crate::database::Database;
use crate::display;
use crate::workspace::Workspace;
use fem2_fem::{LoadSet, Material, Mesh, StructuralModel};
use fem2_trace::{chrome, EventKind, SharedRecorder, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};
use std::fmt;

/// Errors surfaced to the console user.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// The line did not parse.
    Parse(String),
    /// The command parsed but could not be executed.
    Exec(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(m) => write!(f, "parse error: {m}"),
            SessionError::Exec(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Events retained by the console trace ring.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// One user's interactive session.
pub struct Session {
    /// Session-local data.
    pub workspace: Workspace,
    db: Database,
    finished: bool,
    /// Console tracing: a live handle while TRACE ON, plus the recorder
    /// (kept after TRACE OFF so EXPORT still works).
    trace: Option<(TraceHandle, SharedRecorder)>,
    tracing: bool,
    cmd_seq: u32,
}

impl Session {
    /// A session over a (possibly shared) database.
    pub fn new(db: Database) -> Self {
        Session {
            workspace: Workspace::new(),
            db,
            finished: false,
            trace: None,
            tracing: false,
            cmd_seq: 0,
        }
    }

    /// True once the user has QUIT.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The shared database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Interpret one command line, returning its output text. Blank lines
    /// and comments return an empty string.
    pub fn exec(&mut self, line: &str) -> Result<String, SessionError> {
        let cmd = command::parse(line).map_err(|e| SessionError::Parse(e.0))?;
        match cmd {
            None => Ok(String::new()),
            Some(c) => self.execute(c).map_err(SessionError::Exec),
        }
    }

    /// Run a multi-line script, stopping at the first error; returns the
    /// concatenated output.
    pub fn run_script(&mut self, script: &str) -> Result<String, SessionError> {
        let mut out = String::new();
        for line in script.lines() {
            let piece = self.exec(line)?;
            if !piece.is_empty() {
                out.push_str(&piece);
                if !piece.ends_with('\n') {
                    out.push('\n');
                }
            }
            if self.finished {
                break;
            }
        }
        Ok(out)
    }

    fn execute(&mut self, cmd: Command) -> Result<String, String> {
        if self.tracing && !matches!(cmd, Command::Trace(_)) {
            if let Some((h, _)) = &self.trace {
                self.cmd_seq += 1;
                let seq = self.cmd_seq;
                h.emit(|| {
                    TraceEvent::span(
                        seq as u64,
                        1,
                        NO_CLUSTER,
                        NO_PE,
                        EventKind::AppCommand { seq },
                    )
                });
            }
        }
        match cmd {
            Command::DefineModel(name) => {
                self.workspace.set_model(StructuralModel::new(&name));
                Ok(format!("model {name} defined"))
            }
            Command::GenerateGrid { nx, ny, kind } => {
                let m = self.workspace.model_mut()?;
                m.mesh = match kind {
                    GridKind::Quad => Mesh::grid_quad(nx, ny, nx as f64, ny as f64),
                    GridKind::Tri => Mesh::grid_tri(nx, ny, nx as f64, ny as f64),
                };
                Ok(format!(
                    "grid generated: {} nodes, {} elements",
                    m.mesh.node_count(),
                    m.mesh.element_count()
                ))
            }
            Command::GenerateBar { n, length } => {
                let m = self.workspace.model_mut()?;
                m.mesh = Mesh::bar_chain(n, length);
                Ok(format!("bar chain generated: {} bars", n))
            }
            Command::Material(name) => {
                let m = self.workspace.model_mut()?;
                m.material = match name.as_str() {
                    "STEEL" => Material::steel(),
                    "ALUMINUM" => Material::aluminum(),
                    "UNIT" => Material::unit(),
                    other => return Err(format!("unknown material {other}")),
                };
                Ok(format!("material set to {}", name.to_lowercase()))
            }
            Command::FixEdge(edge) => {
                let m = self.workspace.model_mut()?;
                let nodes = match edge {
                    Edge::Left => m.mesh.left_edge_nodes(1e-9),
                    Edge::Right => m.mesh.right_edge_nodes(1e-9),
                };
                if nodes.is_empty() {
                    return Err("no nodes on that edge (generate a grid first)".into());
                }
                let count = nodes.len();
                for n in nodes {
                    m.constraints.fix_node(n);
                }
                Ok(format!("{count} nodes fixed"))
            }
            Command::FixNode(n) => {
                let m = self.workspace.model_mut()?;
                if n >= m.mesh.node_count() {
                    return Err(format!("node {n} does not exist"));
                }
                m.constraints.fix_node(n);
                Ok(format!("node {n} fixed"))
            }
            Command::LoadSet(name) => {
                let m = self.workspace.model_mut()?;
                let idx = m.add_load_set(LoadSet::new(&name));
                self.workspace.current_load_set = Some(idx);
                Ok(format!("load set {name} selected"))
            }
            Command::LoadNode { node, fx, fy } => {
                let idx = self
                    .workspace
                    .current_load_set
                    .ok_or("no load set selected (LOADSET first)")?;
                let m = self.workspace.model_mut()?;
                if node >= m.mesh.node_count() {
                    return Err(format!("node {node} does not exist"));
                }
                m.load_sets[idx].add_node(node, fx, fy);
                Ok(format!("load added to node {node}"))
            }
            Command::Solve { solver, load_set } => {
                let idx = match load_set {
                    Some(name) => {
                        let m = self.workspace.model()?;
                        m.load_sets
                            .iter()
                            .position(|ls| ls.name == name)
                            .ok_or_else(|| format!("no load set named {name}"))?
                    }
                    None => self
                        .workspace
                        .current_load_set
                        .ok_or("no load set selected (LOADSET first)")?,
                };
                let m = self.workspace.model()?;
                let a = m.analyze(idx, solver)?;
                let msg = format!(
                    "converged in {} iteration(s), residual {:.3e}, max displacement {:.6e}",
                    a.log.iterations,
                    a.log.residual,
                    a.max_displacement()
                );
                self.workspace.last_analysis = Some(a);
                Ok(msg)
            }
            Command::SolveSubstructured { parts, load_set } => {
                if parts == 0 {
                    return Err("need at least one substructure".into());
                }
                let idx = match load_set {
                    Some(name) => {
                        let m = self.workspace.model()?;
                        m.load_sets
                            .iter()
                            .position(|ls| ls.name == name)
                            .ok_or_else(|| format!("no load set named {name}"))?
                    }
                    None => self
                        .workspace
                        .current_load_set
                        .ok_or("no load set selected (LOADSET first)")?,
                };
                let m = self.workspace.model()?;
                let a = m.analyze_substructured(idx, parts)?;
                let msg = format!(
                    "substructured solve ({parts} parts) residual {:.3e}, max displacement {:.6e}",
                    a.log.residual,
                    a.max_displacement()
                );
                self.workspace.last_analysis = Some(a);
                Ok(msg)
            }
            Command::Renumber => {
                let m = self.workspace.model_mut()?;
                if m.mesh.node_count() == 0 {
                    return Err("no mesh to renumber (GENERATE first)".into());
                }
                let (before, after) = m.renumber_rcm();
                self.workspace.last_analysis = None; // numbering changed
                Ok(format!(
                    "RCM renumbering: half-bandwidth {before} -> {after}"
                ))
            }
            Command::Frequency => {
                let m = self.workspace.model()?;
                let (lambda, mode) = m.fundamental_mode()?;
                let freq = lambda.sqrt() / (2.0 * std::f64::consts::PI);
                let peak = mode
                    .chunks(2)
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        let ma = a[0] * a[0] + a[1] * a[1];
                        let mb = b[0] * b[0] + b[1] * b[1];
                        ma.total_cmp(&mb)
                    })
                    .map(|(n, _)| n)
                    .unwrap_or(0);
                Ok(format!(
                    "fundamental eigenvalue {lambda:.6e} (frequency {freq:.4e} with unit mass); peak mode amplitude at node {peak}"
                ))
            }
            Command::Stresses => {
                let a = self.workspace.analysis()?;
                Ok(format!(
                    "stresses computed for {} elements, max von Mises {:.6e}",
                    a.stresses.len(),
                    a.max_von_mises()
                ))
            }
            Command::Display(what) => {
                let m = self.workspace.model()?;
                match what {
                    DisplayWhat::Model => Ok(display::model_summary(m)),
                    DisplayWhat::Displacements => {
                        let a = self.workspace.analysis()?;
                        Ok(display::displacement_table(m, a, 10))
                    }
                    DisplayWhat::Stresses => {
                        let a = self.workspace.analysis()?;
                        Ok(display::stress_table(a, 10))
                    }
                }
            }
            Command::Store => {
                let m = self.workspace.model()?;
                self.db.store(m)?;
                Ok(format!("model {} stored", m.name))
            }
            Command::Retrieve(name) => {
                let m = self
                    .db
                    .retrieve(&name)
                    .ok_or_else(|| format!("no stored model named {name}"))?;
                self.workspace.set_model(m);
                Ok(format!("model {name} retrieved"))
            }
            Command::List => {
                let names = self.db.list();
                if names.is_empty() {
                    Ok("database is empty".into())
                } else {
                    Ok(names.join("\n"))
                }
            }
            Command::Delete(name) => {
                if self.db.delete(&name) {
                    Ok(format!("model {name} deleted"))
                } else {
                    Err(format!("no stored model named {name}"))
                }
            }
            Command::Verify { tasks } => {
                let (script, machine) = self.lowered_solve(tasks, "verify")?;
                Ok(fem2_verify::check_script(&script, &machine).render())
            }
            Command::Cost { tasks } => {
                let (script, machine) = self.lowered_solve(tasks, "bound")?;
                let params = fem2_verify::CostParams::single_sweep();
                Ok(fem2_verify::check_cost(&script, &machine, &params).render())
            }
            Command::Trace(action) => match action {
                TraceAction::On => {
                    if self.trace.is_none() {
                        self.trace = Some(TraceHandle::ring(TRACE_RING_CAPACITY));
                    }
                    self.tracing = true;
                    Ok("tracing on".into())
                }
                TraceAction::Off => {
                    self.tracing = false;
                    Ok("tracing off".into())
                }
                TraceAction::Export(path) => {
                    let Some((_, rec)) = &self.trace else {
                        return Err("nothing recorded (TRACE ON first)".into());
                    };
                    let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
                    let json = chrome::trace_json(&rec);
                    std::fs::write(&path, &json)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    Ok(format!("trace written to {path} ({} events)", rec.len()))
                }
            },
            Command::Help => Ok(command::HELP_TEXT.to_string()),
            Command::Quit => {
                self.finished = true;
                Ok("goodbye".into())
            }
        }
    }

    /// The current model's distributed CG solve on the default machine,
    /// lowered for the analyzer with `tasks` tasks (one per worker PE by
    /// default). `verb` names what `VERIFY` or `COST` would have done with
    /// a model that has no unknowns.
    fn lowered_solve(
        &self,
        tasks: Option<u32>,
        verb: &str,
    ) -> Result<(fem2_verify::ScenarioScript, fem2_machine::MachineConfig), String> {
        let m = self.workspace.model()?;
        let dofs = m.dof_count() as u64;
        if dofs == 0 {
            return Err(format!("no unknowns to {verb} (GENERATE first)"));
        }
        let machine = fem2_machine::MachineConfig::fem2_default();
        let tasks = tasks.unwrap_or_else(|| machine.total_workers());
        let script = fem2_verify::lower::solve_script(
            format!("{} ({dofs} unknowns, {tasks} tasks)", m.name),
            &machine,
            tasks,
            fem2_verify::lower::SolveShape {
                unknowns: dofs,
                // One boundary row of unknowns crosses each halo.
                halo_words: dofs.isqrt().max(1),
            },
        );
        Ok((script, machine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(Database::in_memory())
    }

    const CANTILEVER: &str = "\
DEFINE MODEL plate
GENERATE GRID 6 2 QUAD
MATERIAL STEEL
FIX EDGE LEFT
LOADSET tip
LOAD NODE 20 0 -1e4
SOLVE WITH SKYLINE
STRESSES";

    #[test]
    fn full_pipeline_runs() {
        let mut s = session();
        let out = s.run_script(CANTILEVER).unwrap();
        assert!(out.contains("model plate defined"));
        assert!(out.contains("grid generated: 21 nodes, 12 elements"));
        assert!(out.contains("3 nodes fixed"));
        assert!(out.contains("converged"));
        assert!(out.contains("max von Mises"));
    }

    #[test]
    fn command_order_is_enforced() {
        let mut s = session();
        assert!(s.exec("GENERATE GRID 2 2").is_err(), "no model yet");
        assert!(s.exec("SOLVE").is_err());
        s.exec("DEFINE MODEL m").unwrap();
        assert!(s.exec("LOAD NODE 0 1 1").is_err(), "no load set yet");
        assert!(s.exec("DISPLAY DISPLACEMENTS").is_err(), "nothing solved");
    }

    #[test]
    fn bad_node_indices_rejected() {
        let mut s = session();
        s.exec("DEFINE MODEL m").unwrap();
        s.exec("GENERATE GRID 2 2").unwrap();
        assert!(s.exec("FIX NODE 99").is_err());
        s.exec("LOADSET l").unwrap();
        assert!(s.exec("LOAD NODE 99 0 1").is_err());
    }

    #[test]
    fn store_retrieve_between_sessions() {
        let db = Database::in_memory();
        let mut s1 = Session::new(db.clone());
        s1.run_script(
            "DEFINE MODEL shared\nGENERATE GRID 3 2\nMATERIAL ALUMINUM\nFIX EDGE LEFT\nSTORE",
        )
        .unwrap();
        // A second user retrieves and analyzes the shared model.
        let mut s2 = Session::new(db);
        s2.exec("RETRIEVE shared").unwrap();
        s2.exec("LOADSET pull").unwrap();
        s2.exec("LOAD NODE 11 1e3 0").unwrap();
        let out = s2.exec("SOLVE WITH CG").unwrap();
        assert!(out.contains("converged"));
    }

    #[test]
    fn list_and_delete_via_commands() {
        let mut s = session();
        s.run_script("DEFINE MODEL a\nGENERATE GRID 2 2\nFIX EDGE LEFT\nSTORE")
            .unwrap();
        assert_eq!(s.exec("LIST").unwrap(), "a");
        assert!(s.exec("DELETE a").unwrap().contains("deleted"));
        assert_eq!(s.exec("LIST").unwrap(), "database is empty");
        assert!(s.exec("DELETE a").is_err());
    }

    #[test]
    fn solve_with_named_load_set() {
        let mut s = session();
        s.run_script("DEFINE MODEL m\nGENERATE GRID 4 2\nMATERIAL STEEL\nFIX EDGE LEFT")
            .unwrap();
        s.exec("LOADSET dead").unwrap();
        s.exec("LOAD NODE 14 0 -1").unwrap();
        s.exec("LOADSET gust").unwrap();
        s.exec("LOAD NODE 14 500 0").unwrap();
        let out = s.exec("SOLVE LOADSET dead").unwrap();
        assert!(out.contains("converged"));
        assert!(s.exec("SOLVE LOADSET nope").is_err());
    }

    #[test]
    fn solve_with_jacobi_is_refused_by_name() {
        let mut s = session();
        s.run_script(CANTILEVER).unwrap();
        let before = s.workspace.analysis().unwrap().max_displacement();
        let refused = s.exec("SOLVE WITH JACOBI").unwrap_err();
        assert_eq!(
            refused,
            SessionError::Exec(fem2_fem::JACOBI_ON_PLANE_STRESS.to_string())
        );
        // The session goes on, with the analysis it had.
        assert_eq!(s.workspace.analysis().unwrap().max_displacement(), before);
        assert!(s.exec("SOLVE WITH SOR").unwrap().contains("converged"));
    }

    #[test]
    fn display_outputs() {
        let mut s = session();
        s.run_script(CANTILEVER).unwrap();
        let model = s.exec("DISPLAY MODEL").unwrap();
        assert!(model.contains("model plate"));
        let disp = s.exec("DISPLAY DISPLACEMENTS").unwrap();
        assert!(disp.contains("max displacement"));
        let stress = s.exec("DISPLAY STRESSES").unwrap();
        assert!(stress.contains("von Mises"));
    }

    #[test]
    fn substructured_solve_matches_direct_through_console() {
        let mut s = session();
        s.run_script(CANTILEVER).unwrap();
        let direct = s.workspace.analysis().unwrap().max_displacement();
        let out = s.exec("SOLVE SUBSTRUCTURED 3").unwrap();
        assert!(out.contains("substructured"));
        let sub = s.workspace.analysis().unwrap().max_displacement();
        assert!((direct - sub).abs() < 1e-8 * direct);
    }

    #[test]
    fn renumber_then_solve_still_works() {
        let mut s = session();
        s.run_script("DEFINE MODEL m\nGENERATE GRID 6 2 QUAD\nMATERIAL STEEL\nFIX EDGE LEFT\nLOADSET l\nLOAD NODE 20 0 -1e4")
            .unwrap();
        let out = s.exec("RENUMBER").unwrap();
        assert!(out.contains("half-bandwidth"));
        // Results invalidated by renumbering; solving again works.
        assert!(s.exec("DISPLAY DISPLACEMENTS").is_err());
        let out = s.exec("SOLVE WITH EBE").unwrap();
        assert!(out.contains("converged"));
    }

    #[test]
    fn frequency_command_reports_eigenvalue() {
        let mut s = session();
        s.run_script("DEFINE MODEL m\nGENERATE GRID 4 2 QUAD\nMATERIAL STEEL\nFIX EDGE LEFT")
            .unwrap();
        let out = s.exec("FREQUENCY").unwrap();
        assert!(out.contains("fundamental eigenvalue"));
        assert!(out.contains("peak mode amplitude"));
    }

    #[test]
    fn quit_finishes_session_and_script_stops() {
        let mut s = session();
        let out = s
            .run_script("DEFINE MODEL m\nQUIT\nDEFINE MODEL never")
            .unwrap();
        assert!(s.finished());
        assert!(out.contains("goodbye"));
        assert!(!out.contains("never"));
    }

    #[test]
    fn parse_errors_are_session_errors() {
        let mut s = session();
        match s.exec("FROBNICATE") {
            Err(SessionError::Parse(m)) => assert!(m.contains("unknown command")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_records_and_exports_commands() {
        let mut s = session();
        assert!(
            s.exec("TRACE EXPORT /tmp/x.json").is_err(),
            "nothing recorded yet"
        );
        s.exec("TRACE ON").unwrap();
        s.exec("DEFINE MODEL traced").unwrap();
        s.exec("GENERATE GRID 2 2").unwrap();
        s.exec("TRACE OFF").unwrap();
        s.exec("DEFINE MODEL untraced").unwrap();
        let path = std::env::temp_dir().join("fem2_appvm_trace_test.json");
        let out = s.exec(&format!("TRACE EXPORT {}", path.display())).unwrap();
        assert!(out.contains("2 events"), "only the traced commands: {out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("command"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn help_is_available() {
        let mut s = session();
        assert!(s.exec("HELP").unwrap().contains("DEFINE MODEL"));
    }
}
