//! The interactive command language.
//!
//! One command per line, keywords case-insensitive, arguments
//! whitespace-separated. The grammar deliberately reads like a 1983
//! engineering console:
//!
//! ```text
//! DEFINE MODEL <name>
//! GENERATE GRID <nx> <ny> [QUAD|TRI]
//! GENERATE BAR <n> LENGTH <l>
//! MATERIAL STEEL|ALUMINUM|UNIT
//! FIX EDGE LEFT|RIGHT
//! FIX NODE <i>
//! LOADSET <name>
//! LOAD NODE <i> <fx> <fy>
//! SOLVE [WITH SKYLINE|CG|PCG|JACOBI|SOR] [LOADSET <name>]
//! STRESSES
//! DISPLAY MODEL|DISPLACEMENTS|STRESSES
//! STORE
//! RETRIEVE <name>
//! LIST
//! DELETE <name>
//! HELP
//! QUIT
//! ```

use fem2_fem::SolverChoice;
use std::fmt;

/// Grid element flavour for GENERATE GRID.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GridKind {
    /// Quad4 cells.
    Quad,
    /// CST triangle pairs.
    Tri,
}

/// Which mesh edge a FIX EDGE applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edge {
    /// x = 0.
    Left,
    /// x = max.
    Right,
}

/// What DISPLAY should render.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DisplayWhat {
    /// Model summary.
    Model,
    /// Nodal displacement table.
    Displacements,
    /// Element stress table.
    Stresses,
}

/// What a TRACE command should do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceAction {
    /// Start recording command events.
    On,
    /// Stop recording (the buffer is kept for a later EXPORT).
    Off,
    /// Write the recorded Chrome trace JSON to a file.
    Export(String),
}

/// A parsed command.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Start a fresh model in the workspace.
    DefineModel(String),
    /// Generate a structured grid.
    GenerateGrid {
        /// Cells in x.
        nx: usize,
        /// Cells in y.
        ny: usize,
        /// Element flavour.
        kind: GridKind,
    },
    /// Generate a bar chain.
    GenerateBar {
        /// Number of bars.
        n: usize,
        /// Total length.
        length: f64,
    },
    /// Select a material preset.
    Material(String),
    /// Fix all nodes on an edge.
    FixEdge(Edge),
    /// Fix one node.
    FixNode(usize),
    /// Create (and select) a load set.
    LoadSet(String),
    /// Add a nodal load to the current load set.
    LoadNode {
        /// Node index.
        node: usize,
        /// Force in x.
        fx: f64,
        /// Force in y.
        fy: f64,
    },
    /// Solve the current model.
    Solve {
        /// Solver choice (default skyline).
        solver: SolverChoice,
        /// Load set name (default: the current one).
        load_set: Option<String>,
    },
    /// Solve by substructuring into N vertical strips.
    SolveSubstructured {
        /// Number of substructures.
        parts: usize,
        /// Load set name (default: the current one).
        load_set: Option<String>,
    },
    /// Recompute stresses from the last solution.
    Stresses,
    /// Renumber the mesh by RCM (bandwidth reduction).
    Renumber,
    /// Fundamental stiffness eigenvalue / vibration mode.
    Frequency,
    /// Render results or the model.
    Display(DisplayWhat),
    /// Store the workspace model in the database.
    Store,
    /// Retrieve a model from the database.
    Retrieve(String),
    /// List database contents.
    List,
    /// Delete a model from the database.
    Delete(String),
    /// Statically verify the distributed solve of the current model
    /// (protocol, deadlock, storage passes) without running it.
    Verify {
        /// Task-crew size (default: one task per worker PE).
        tasks: Option<u32>,
    },
    /// Statically bound the cost of the distributed solve of the current
    /// model (cycles, events, messages, memory) without running it.
    Cost {
        /// Task-crew size (default: one task per worker PE).
        tasks: Option<u32>,
    },
    /// Control event tracing of console commands.
    Trace(TraceAction),
    /// Show the command summary.
    Help,
    /// End the session.
    Quit,
}

/// A parse failure with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, ParseError> {
    tok.parse()
        .map_err(|_| ParseError(format!("expected {what}, got {tok:?}")))
}

/// Parse one command line. Empty lines and `#` comments yield `None`.
pub(crate) fn parse(line: &str) -> Result<Option<Command>, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    let kw: Vec<String> = toks.iter().map(|t| t.to_uppercase()).collect();
    let cmd = match kw[0].as_str() {
        "DEFINE" => {
            if kw.len() == 3 && kw[1] == "MODEL" {
                Command::DefineModel(toks[2].to_string())
            } else {
                return err("usage: DEFINE MODEL <name>");
            }
        }
        "GENERATE" => match kw.get(1).map(|s| s.as_str()) {
            Some("GRID") => {
                if toks.len() < 4 {
                    return err("usage: GENERATE GRID <nx> <ny> [QUAD|TRI]");
                }
                let nx = parse_num(toks[2], "nx")?;
                let ny = parse_num(toks[3], "ny")?;
                let kind = match kw.get(4).map(|s| s.as_str()) {
                    None | Some("QUAD") => GridKind::Quad,
                    Some("TRI") => GridKind::Tri,
                    Some(other) => return err(format!("unknown grid kind {other}")),
                };
                Command::GenerateGrid { nx, ny, kind }
            }
            Some("BAR") => {
                if kw.len() == 5 && kw[3] == "LENGTH" {
                    Command::GenerateBar {
                        n: parse_num(toks[2], "bar count")?,
                        length: parse_num(toks[4], "length")?,
                    }
                } else {
                    return err("usage: GENERATE BAR <n> LENGTH <l>");
                }
            }
            _ => return err("usage: GENERATE GRID ... | GENERATE BAR ..."),
        },
        "MATERIAL" => {
            if kw.len() == 2 {
                Command::Material(kw[1].clone())
            } else {
                return err("usage: MATERIAL STEEL|ALUMINUM|UNIT");
            }
        }
        "FIX" => match kw.get(1).map(|s| s.as_str()) {
            Some("EDGE") => match kw.get(2).map(|s| s.as_str()) {
                Some("LEFT") => Command::FixEdge(Edge::Left),
                Some("RIGHT") => Command::FixEdge(Edge::Right),
                _ => return err("usage: FIX EDGE LEFT|RIGHT"),
            },
            Some("NODE") => {
                if toks.len() == 3 {
                    Command::FixNode(parse_num(toks[2], "node index")?)
                } else {
                    return err("usage: FIX NODE <i>");
                }
            }
            _ => return err("usage: FIX EDGE ... | FIX NODE ..."),
        },
        "LOADSET" => {
            if toks.len() == 2 {
                Command::LoadSet(toks[1].to_string())
            } else {
                return err("usage: LOADSET <name>");
            }
        }
        "LOAD" => {
            if kw.len() == 5 && kw[1] == "NODE" {
                Command::LoadNode {
                    node: parse_num(toks[2], "node index")?,
                    fx: parse_num(toks[3], "fx")?,
                    fy: parse_num(toks[4], "fy")?,
                }
            } else {
                return err("usage: LOAD NODE <i> <fx> <fy>");
            }
        }
        "SOLVE" if kw.get(1).map(|s| s.as_str()) == Some("SUBSTRUCTURED") => {
            if toks.len() < 3 {
                return err("usage: SOLVE SUBSTRUCTURED <parts> [LOADSET <name>]");
            }
            let parts = parse_num(toks[2], "part count")?;
            let load_set = match kw.get(3).map(|s| s.as_str()) {
                Some("LOADSET") => Some(
                    toks.get(4)
                        .ok_or_else(|| ParseError("LOADSET needs a name".into()))?
                        .to_string(),
                ),
                Some(other) => return err(format!("unexpected token {other}")),
                None => None,
            };
            Command::SolveSubstructured { parts, load_set }
        }
        "SOLVE" => {
            let mut solver = SolverChoice::Skyline;
            let mut load_set = None;
            let mut i = 1;
            while i < kw.len() {
                match kw[i].as_str() {
                    "WITH" => {
                        let name = kw
                            .get(i + 1)
                            .ok_or_else(|| ParseError("WITH needs a solver name".into()))?;
                        solver = match name.as_str() {
                            "SKYLINE" => SolverChoice::Skyline,
                            "CG" => SolverChoice::Cg { tol: 1e-8 },
                            "PCG" => SolverChoice::PreconditionedCg { tol: 1e-8 },
                            "JACOBI" => SolverChoice::Jacobi { tol: 1e-8 },
                            "SOR" => SolverChoice::Sor {
                                omega: 1.6,
                                tol: 1e-8,
                            },
                            "EBE" => SolverChoice::ElementByElement { tol: 1e-8 },
                            other => return err(format!("unknown solver {other}")),
                        };
                        i += 2;
                    }
                    "LOADSET" => {
                        load_set = Some(
                            toks.get(i + 1)
                                .ok_or_else(|| ParseError("LOADSET needs a name".into()))?
                                .to_string(),
                        );
                        i += 2;
                    }
                    other => return err(format!("unexpected token {other}")),
                }
            }
            Command::Solve { solver, load_set }
        }
        "STRESSES" => Command::Stresses,
        "RENUMBER" => Command::Renumber,
        "FREQUENCY" => Command::Frequency,
        "DISPLAY" => match kw.get(1).map(|s| s.as_str()) {
            Some("MODEL") => Command::Display(DisplayWhat::Model),
            Some("DISPLACEMENTS") => Command::Display(DisplayWhat::Displacements),
            Some("STRESSES") => Command::Display(DisplayWhat::Stresses),
            _ => return err("usage: DISPLAY MODEL|DISPLACEMENTS|STRESSES"),
        },
        "STORE" => Command::Store,
        "RETRIEVE" => {
            if toks.len() == 2 {
                Command::Retrieve(toks[1].to_string())
            } else {
                return err("usage: RETRIEVE <name>");
            }
        }
        "LIST" => Command::List,
        "DELETE" => {
            if toks.len() == 2 {
                Command::Delete(toks[1].to_string())
            } else {
                return err("usage: DELETE <name>");
            }
        }
        "VERIFY" => match kw.get(1).map(|s| s.as_str()) {
            None => Command::Verify { tasks: None },
            Some("TASKS") if toks.len() == 3 => Command::Verify {
                tasks: Some(parse_num(toks[2], "task count")?),
            },
            _ => return err("usage: VERIFY [TASKS <n>]"),
        },
        "COST" => match kw.get(1).map(|s| s.as_str()) {
            None => Command::Cost { tasks: None },
            Some("TASKS") if toks.len() == 3 => Command::Cost {
                tasks: Some(parse_num(toks[2], "task count")?),
            },
            _ => return err("usage: COST [TASKS <n>]"),
        },
        "TRACE" => match kw.get(1).map(|s| s.as_str()) {
            Some("ON") => Command::Trace(TraceAction::On),
            Some("OFF") => Command::Trace(TraceAction::Off),
            Some("EXPORT") => {
                if toks.len() == 3 {
                    Command::Trace(TraceAction::Export(toks[2].to_string()))
                } else {
                    return err("usage: TRACE EXPORT <path>");
                }
            }
            _ => return err("usage: TRACE ON|OFF|EXPORT <path>"),
        },
        "HELP" => Command::Help,
        "QUIT" | "EXIT" => Command::Quit,
        other => return err(format!("unknown command {other}")),
    };
    Ok(Some(cmd))
}

/// The HELP text.
pub(crate) const HELP_TEXT: &str = "\
DEFINE MODEL <name>                 start a new model
GENERATE GRID <nx> <ny> [QUAD|TRI]  generate a plate grid
GENERATE BAR <n> LENGTH <l>         generate a bar chain
MATERIAL STEEL|ALUMINUM|UNIT        select material
FIX EDGE LEFT|RIGHT                 clamp an edge
FIX NODE <i>                        pin a node
LOADSET <name>                      create/select a load set
LOAD NODE <i> <fx> <fy>             add a nodal force
SOLVE [WITH <solver>] [LOADSET <n>] solve (SKYLINE|CG|PCG|JACOBI|SOR|EBE)
SOLVE SUBSTRUCTURED <parts>         solve by parallel static condensation
STRESSES                            recompute element stresses
RENUMBER                            RCM bandwidth reduction
FREQUENCY                           fundamental eigenvalue / mode
DISPLAY MODEL|DISPLACEMENTS|STRESSES
STORE | RETRIEVE <name> | LIST | DELETE <name>
VERIFY [TASKS <n>]                  static checks of the distributed solve
COST [TASKS <n>]                    static cost bounds of the distributed solve
TRACE ON|OFF|EXPORT <path>          event tracing of commands
HELP | QUIT";

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> Command {
        parse(line).unwrap().unwrap()
    }

    #[test]
    fn blank_and_comment_lines() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("   ").unwrap(), None);
        assert_eq!(parse("# a comment").unwrap(), None);
    }

    #[test]
    fn define_and_generate() {
        assert_eq!(
            one("DEFINE MODEL wing"),
            Command::DefineModel("wing".into())
        );
        assert_eq!(
            one("generate grid 8 4 tri"),
            Command::GenerateGrid {
                nx: 8,
                ny: 4,
                kind: GridKind::Tri
            }
        );
        assert_eq!(
            one("GENERATE GRID 8 4"),
            Command::GenerateGrid {
                nx: 8,
                ny: 4,
                kind: GridKind::Quad
            }
        );
        assert_eq!(
            one("GENERATE BAR 10 LENGTH 2.5"),
            Command::GenerateBar { n: 10, length: 2.5 }
        );
    }

    #[test]
    fn case_insensitive_keywords_preserve_names() {
        assert_eq!(
            one("define model Wing"),
            Command::DefineModel("Wing".into())
        );
    }

    #[test]
    fn fixes_and_loads() {
        assert_eq!(one("FIX EDGE LEFT"), Command::FixEdge(Edge::Left));
        assert_eq!(one("fix edge right"), Command::FixEdge(Edge::Right));
        assert_eq!(one("FIX NODE 7"), Command::FixNode(7));
        assert_eq!(one("LOADSET gust"), Command::LoadSet("gust".into()));
        assert_eq!(
            one("LOAD NODE 3 1.5 -2e3"),
            Command::LoadNode {
                node: 3,
                fx: 1.5,
                fy: -2e3
            }
        );
    }

    #[test]
    fn solve_variants() {
        assert_eq!(
            one("SOLVE"),
            Command::Solve {
                solver: SolverChoice::Skyline,
                load_set: None
            }
        );
        assert_eq!(
            one("SOLVE WITH CG"),
            Command::Solve {
                solver: SolverChoice::Cg { tol: 1e-8 },
                load_set: None
            }
        );
        assert_eq!(
            one("SOLVE WITH SOR LOADSET gust"),
            Command::Solve {
                solver: SolverChoice::Sor {
                    omega: 1.6,
                    tol: 1e-8
                },
                load_set: Some("gust".into())
            }
        );
    }

    #[test]
    fn db_and_misc() {
        assert_eq!(one("STORE"), Command::Store);
        assert_eq!(one("RETRIEVE wing"), Command::Retrieve("wing".into()));
        assert_eq!(one("LIST"), Command::List);
        assert_eq!(one("DELETE old"), Command::Delete("old".into()));
        assert_eq!(one("HELP"), Command::Help);
        assert_eq!(one("QUIT"), Command::Quit);
        assert_eq!(one("exit"), Command::Quit);
        assert_eq!(
            one("DISPLAY STRESSES"),
            Command::Display(DisplayWhat::Stresses)
        );
    }

    #[test]
    fn renumber_frequency_and_substructured() {
        assert_eq!(one("RENUMBER"), Command::Renumber);
        assert_eq!(one("frequency"), Command::Frequency);
        assert_eq!(
            one("SOLVE WITH EBE"),
            Command::Solve {
                solver: SolverChoice::ElementByElement { tol: 1e-8 },
                load_set: None
            }
        );
        assert_eq!(
            one("SOLVE SUBSTRUCTURED 4"),
            Command::SolveSubstructured {
                parts: 4,
                load_set: None
            }
        );
        assert_eq!(
            one("SOLVE SUBSTRUCTURED 2 LOADSET gust"),
            Command::SolveSubstructured {
                parts: 2,
                load_set: Some("gust".into())
            }
        );
        assert!(parse("SOLVE SUBSTRUCTURED").is_err());
        assert!(parse("SOLVE SUBSTRUCTURED x").is_err());
    }

    #[test]
    fn verify_commands_parse() {
        assert_eq!(one("VERIFY"), Command::Verify { tasks: None });
        assert_eq!(one("verify tasks 8"), Command::Verify { tasks: Some(8) });
        assert_eq!(one("COST"), Command::Cost { tasks: None });
        assert_eq!(one("cost tasks 8"), Command::Cost { tasks: Some(8) });
        assert!(parse("COST TASKS").is_err());
        assert!(parse("VERIFY TASKS").is_err());
        assert!(parse("VERIFY NOW").is_err());
    }

    #[test]
    fn trace_commands_parse() {
        assert_eq!(one("TRACE ON"), Command::Trace(TraceAction::On));
        assert_eq!(one("trace off"), Command::Trace(TraceAction::Off));
        assert_eq!(
            one("TRACE EXPORT /tmp/Out.json"),
            Command::Trace(TraceAction::Export("/tmp/Out.json".into())),
            "export path keeps its case"
        );
        assert!(parse("TRACE").is_err());
        assert!(parse("TRACE EXPORT").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        for (line, expect) in [
            ("FROBNICATE", "unknown command"),
            ("DEFINE MODEL", "usage: DEFINE MODEL"),
            ("GENERATE GRID 2", "usage: GENERATE GRID"),
            ("GENERATE GRID a b", "expected nx"),
            ("SOLVE WITH GAUSS", "unknown solver"),
            ("FIX EDGE TOP", "usage: FIX EDGE"),
            ("LOAD NODE 1 2", "usage: LOAD NODE"),
        ] {
            let e = parse(line).unwrap_err();
            assert!(
                e.0.contains(expect),
                "{line:?}: {} should contain {expect:?}",
                e.0
            );
        }
    }

    #[test]
    fn help_text_covers_every_command_family() {
        for kw in [
            "DEFINE", "GENERATE", "MATERIAL", "FIX", "LOADSET", "LOAD", "SOLVE", "STRESSES",
            "DISPLAY", "STORE", "RETRIEVE", "LIST", "DELETE", "VERIFY", "COST", "TRACE", "QUIT",
        ] {
            assert!(HELP_TEXT.contains(kw), "HELP missing {kw}");
        }
    }
}
