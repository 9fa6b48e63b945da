//! The user workspace: session-local data.
//!
//! "Workspace (user local data)" — the model under construction, the
//! selected load set, and the most recent analysis. Contrast with the
//! shared [`crate::database::Database`].

use fem2_fem::{Analysis, StructuralModel};

/// One user's local state.
#[derive(Default)]
pub struct Workspace {
    /// The model being built/analyzed, if any.
    pub(crate) model: Option<StructuralModel>,
    /// Index of the selected load set in the model.
    pub(crate) current_load_set: Option<usize>,
    /// The most recent analysis result.
    pub(crate) last_analysis: Option<Analysis>,
}

impl Workspace {
    /// An empty workspace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Install a fresh model, clearing load-set selection and results.
    pub(crate) fn set_model(&mut self, m: StructuralModel) {
        self.current_load_set = if m.load_sets.is_empty() {
            None
        } else {
            Some(0)
        };
        self.model = Some(m);
        self.last_analysis = None;
    }

    /// The current model, or a uniform "no model" error.
    pub(crate) fn model(&self) -> Result<&StructuralModel, String> {
        self.model
            .as_ref()
            .ok_or_else(|| "no model in workspace (DEFINE MODEL first)".to_string())
    }

    /// Mutable access to the current model.
    pub(crate) fn model_mut(&mut self) -> Result<&mut StructuralModel, String> {
        self.model
            .as_mut()
            .ok_or_else(|| "no model in workspace (DEFINE MODEL first)".to_string())
    }

    /// The last analysis, or a uniform "not solved" error.
    pub fn analysis(&self) -> Result<&Analysis, String> {
        self.last_analysis
            .as_ref()
            .ok_or_else(|| "no results in workspace (SOLVE first)".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_fem::cantilever_plate;

    #[test]
    fn empty_workspace_errors_uniformly() {
        let ws = Workspace::new();
        assert!(ws.model().is_err());
        assert!(ws.analysis().is_err());
    }

    #[test]
    fn set_model_selects_first_load_set() {
        let mut ws = Workspace::new();
        ws.set_model(cantilever_plate(2, 2, -1.0));
        assert_eq!(ws.current_load_set, Some(0));
        assert!(ws.model().is_ok());
    }

    #[test]
    fn set_model_without_loads_has_no_selection() {
        let mut ws = Workspace::new();
        ws.set_model(StructuralModel::new("bare"));
        assert_eq!(ws.current_load_set, None);
    }

    #[test]
    fn replacing_model_clears_results() {
        let mut ws = Workspace::new();
        let m = cantilever_plate(4, 2, -1e4);
        let a = m.analyze(0, fem2_fem::SolverChoice::Skyline).unwrap();
        ws.set_model(m);
        ws.last_analysis = Some(a);
        assert!(ws.analysis().is_ok());
        ws.set_model(cantilever_plate(2, 2, -1.0));
        assert!(ws.analysis().is_err(), "stale results dropped");
    }
}
