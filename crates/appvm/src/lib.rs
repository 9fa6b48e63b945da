//! # fem2-appvm — the application user's virtual machine
//!
//! The top layer of the FEM-2 stack: the interactive workstation of a
//! structural engineer. From the paper:
//!
//! > "The FEM-2 user would typically be a structural engineer using the
//! > system as an interactive workstation that allows one to store the
//! > description of a structural model, to invoke applications packages to
//! > analyze the model, and to display the results."
//!
//! Its components map to modules:
//!
//! * *sequence control* — "direct interpretation of user commands":
//!   [`command`] parses the command language, [`session::Session`] executes
//!   one command at a time;
//! * *data control* — `workspace::Workspace` (user-local data) and
//!   [`database::Database`] (long-term, shared storage);
//! * *data objects & operations* — structure models, grids, load sets,
//!   displacements, stresses, with define/generate/solve/display/store/
//!   retrieve operations, all delegating to `fem2-fem`;
//! * *storage management* — models and results are created dynamically and
//!   move between database and workspace on STORE/RETRIEVE.
//!
//! ```
//! use fem2_appvm::{Database, Session};
//!
//! let db = Database::in_memory();
//! let mut s = Session::new(db);
//! s.exec("DEFINE MODEL wing").unwrap();
//! s.exec("GENERATE GRID 4 2 QUAD").unwrap();
//! s.exec("MATERIAL STEEL").unwrap();
//! s.exec("FIX EDGE LEFT").unwrap();
//! s.exec("LOADSET tip").unwrap();
//! s.exec("LOAD NODE 14 0 -1e4").unwrap();
//! let out = s.exec("SOLVE WITH SKYLINE").unwrap();
//! assert!(out.contains("converged"));
//! ```

pub mod command;
pub mod database;
pub(crate) mod display;
pub mod session;
pub(crate) mod workspace;

pub use command::{Command, ParseError};
pub use database::Database;
pub use session::{Session, SessionError};
