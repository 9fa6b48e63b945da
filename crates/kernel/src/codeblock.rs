//! Code blocks, constants blocks, and work profiles.
//!
//! The kernel does not interpret instructions; a [`CodeBlock`] carries a
//! [`WorkProfile`] — the abstract amount of work one activation of the block
//! performs — which the kernel charges to whichever PE runs it. The navm
//! layer synthesizes code blocks from its linear-algebra operations; the E1
//! scenario analyses size the profiles from real FEM operation counts.

use fem2_machine::Words;
pub use fem2_machine::WorkProfile;
use std::fmt;

/// Identifier of a registered code block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeId(pub u32);

impl fmt::Debug for CodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "code{}", self.0)
    }
}

/// A code/constants block: name, size in words, and per-activation work.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodeBlock {
    /// Human-readable name ("cg_iteration", "assemble_element").
    pub(crate) name: String,
    /// Size of the code + constants, in words (what LoadCode transmits and
    /// what loading allocates in cluster memory).
    pub words: Words,
    /// Work per activation.
    pub(crate) work: WorkProfile,
    /// Local (activation-record) storage per activation, in words.
    pub(crate) locals_words: Words,
}

impl CodeBlock {
    /// A block with the given name, image size, work, and locals.
    pub fn new(
        name: impl Into<String>,
        words: Words,
        work: WorkProfile,
        locals_words: Words,
    ) -> Self {
        CodeBlock {
            name: name.into(),
            words,
            work,
            locals_words,
        }
    }
}

/// The global program store: every code block known to the system.
/// Individual clusters additionally track which blocks they have *loaded*
/// (see `KernelSim`).
#[derive(Clone, Debug, Default)]
pub struct CodeStore {
    blocks: Vec<CodeBlock>,
}

impl CodeStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a block, returning its id.
    pub(crate) fn register(&mut self, block: CodeBlock) -> CodeId {
        let id = CodeId(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }

    /// Look up a block.
    pub fn get(&self, id: CodeId) -> &CodeBlock {
        &self.blocks[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_get() {
        let mut s = CodeStore::new();
        assert!(s.blocks.is_empty());
        let id = s.register(CodeBlock::new("f", 100, WorkProfile::flops(50), 8));
        assert_eq!(s.blocks.len(), 1);
        assert_eq!(s.get(id).name, "f");
        assert_eq!(s.get(id).words, 100);
        assert_eq!(s.get(id).work.flops, 50);
    }

    #[test]
    fn work_profile_arithmetic() {
        let w = WorkProfile {
            flops: 2,
            int_ops: 3,
            mem_words: 4,
        };
        let s = w.scaled(10);
        assert_eq!(
            s,
            WorkProfile {
                flops: 20,
                int_ops: 30,
                mem_words: 40
            }
        );
        let t = s.plus(WorkProfile::flops(5));
        assert_eq!(t.flops, 25);
        assert_eq!(t.int_ops, 30);
    }

    #[test]
    fn code_id_debug() {
        assert_eq!(format!("{:?}", CodeId(3)), "code3");
    }
}
