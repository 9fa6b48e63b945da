//! Window descriptors: the storage representation of the numerical
//! analyst's "windows on arrays".
//!
//! A window descriptor names a rectangular region of a distributed
//! two-dimensional array — a row, a column, or a block — plus the owning
//! task and its cluster. Descriptors are small, first-class values: they
//! "may be transmitted as parameters, further partitioned, stored as values
//! of variables" (paper, NA-VM data control), and this module implements
//! exactly those operations. The navm layer interprets descriptors against
//! array storage; the kernel charges their wire size when they travel.

use crate::activation::TaskId;
use fem2_machine::Words;

/// A descriptor of a rectangular region `[row0, row1) × [col0, col1)` of a
/// named 2-D array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowDescriptor {
    /// The array this window views (navm-level array id).
    pub array: u32,
    /// First row (inclusive).
    pub row0: u32,
    /// Last row (exclusive).
    pub row1: u32,
    /// First column (inclusive).
    pub col0: u32,
    /// Last column (exclusive).
    pub col1: u32,
    /// Task that owns the underlying data.
    pub owner: TaskId,
    /// Cluster where the underlying data lives.
    pub owner_cluster: u32,
}

impl WindowDescriptor {
    /// Size of a descriptor on the wire, in words.
    pub const WIRE_WORDS: Words = 7;

    /// A block window over `[row0, row1) × [col0, col1)`.
    pub fn block(
        array: u32,
        row0: u32,
        row1: u32,
        col0: u32,
        col1: u32,
        owner: TaskId,
        owner_cluster: u32,
    ) -> Self {
        assert!(row0 <= row1 && col0 <= col1, "degenerate window bounds");
        WindowDescriptor {
            array,
            row0,
            row1,
            col0,
            col1,
            owner,
            owner_cluster,
        }
    }

    /// A window over row `r`, columns `[col0, col1)`.
    pub fn row(
        array: u32,
        r: u32,
        col0: u32,
        col1: u32,
        owner: TaskId,
        owner_cluster: u32,
    ) -> Self {
        Self::block(array, r, r + 1, col0, col1, owner, owner_cluster)
    }

    /// Number of rows visible.
    pub(crate) fn rows(&self) -> u32 {
        self.row1 - self.row0
    }

    /// Number of columns visible.
    pub(crate) fn cols(&self) -> u32 {
        self.col1 - self.col0
    }

    /// Number of elements visible.
    pub fn len(&self) -> u64 {
        self.rows() as u64 * self.cols() as u64
    }

    /// True if the window exposes no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TaskId {
        TaskId(1)
    }

    #[test]
    fn constructors_and_shape() {
        let r = WindowDescriptor::row(0, 5, 0, 10, t(), 0);
        assert_eq!(r.rows(), 1);
        assert_eq!(r.cols(), 10);
        assert_eq!(r.len(), 10);

        let b = WindowDescriptor::block(0, 0, 4, 0, 4, t(), 0);
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn single_element_is_block() {
        let w = WindowDescriptor::block(0, 2, 3, 2, 3, t(), 0);
        assert_eq!((w.rows(), w.cols()), (1, 1));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn empty_window() {
        let w = WindowDescriptor::block(0, 2, 2, 0, 5, t(), 0);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    #[should_panic(expected = "degenerate window bounds")]
    fn inverted_bounds_panic() {
        WindowDescriptor::block(0, 5, 2, 0, 5, t(), 0);
    }

    #[test]
    fn wire_size_constant() {
        assert_eq!(WindowDescriptor::WIRE_WORDS, 7);
    }
}
