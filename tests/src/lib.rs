//! Integration test crate for the FEM-2 workspace (tests live in `tests/tests/`).
