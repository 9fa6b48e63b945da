//! The thread count a parallel solve runs with.

/// How many threads a parallel solve may use. Holds no threads itself:
/// `fem2_fem::solver::parallel_cg::solve` starts its own team, sized by
/// [`Pool::threads`], for the length of one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_at_least_one_thread() {
        let p = Pool::new(0);
        assert_eq!(p.threads(), 1);
        let p = Pool::new(3);
        assert_eq!(p.threads(), 3);
    }
}
