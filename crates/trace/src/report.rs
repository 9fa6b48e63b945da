//! Degradation reporting: how much a fault plan cost, in one table row.
//!
//! A [`DegradationReport`] compares one faulted run against its healthy
//! baseline: makespan inflation, reliable-layer traffic (retransmits,
//! dead letters), packets that took a detour around dead links, and how
//! many times the machine reconfigured. Rendering is pure integer
//! formatting so two identical runs produce byte-identical reports (the
//! property the fault-sweep smoke test checks).

use crate::Cycles;

/// Summary of one faulted run versus its healthy baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationReport {
    /// Human label for the fault mix (e.g. `"link-only"`).
    pub label: String,
    /// Makespan of the faulted run, cycles.
    pub makespan: Cycles,
    /// Makespan of the healthy baseline, cycles.
    pub healthy_makespan: Cycles,
    /// Tasks submitted.
    pub tasks: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Reliable-layer retransmits.
    pub retransmits: u64,
    /// Messages dead-lettered after exhausting their retransmit budget.
    pub dead_letters: u64,
    /// Packets routed around a dead link.
    pub rerouted_packets: u64,
    /// Machine reconfigurations (PE/link/memory fault handling).
    pub reconfigurations: u64,
}

impl DegradationReport {
    /// Makespan as permille of the healthy baseline (1000 = no slowdown).
    /// Integer arithmetic keeps the rendering byte-stable.
    pub(crate) fn slowdown_permille(&self) -> u64 {
        if self.healthy_makespan == 0 {
            return 1000;
        }
        self.makespan.saturating_mul(1000) / self.healthy_makespan
    }

    /// Column header matching [`DegradationReport::row`].
    pub(crate) fn header() -> String {
        format!(
            "{:<12} {:>10} {:>9} {:>9} {:>7} {:>8} {:>8} {:>9}\n{}",
            "fault mix",
            "makespan",
            "vs 1.000",
            "done",
            "retrans",
            "deadltr",
            "reroute",
            "reconfig",
            "-".repeat(79),
        )
    }

    /// One table row; stable width-aligned rendering.
    pub(crate) fn row(&self) -> String {
        let pm = self.slowdown_permille();
        format!(
            "{:<12} {:>10} {:>5}.{:03} {:>5}/{:<3} {:>7} {:>8} {:>8} {:>9}",
            self.label,
            self.makespan,
            pm / 1000,
            pm % 1000,
            self.completed,
            self.tasks,
            self.retransmits,
            self.dead_letters,
            self.rerouted_packets,
            self.reconfigurations,
        )
    }

    /// Render a header plus one row per report.
    pub fn render(reports: &[DegradationReport]) -> String {
        let mut out = String::new();
        out.push_str(&Self::header());
        out.push('\n');
        for r in reports {
            out.push_str(&r.row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, makespan: Cycles) -> DegradationReport {
        DegradationReport {
            label: label.to_string(),
            makespan,
            healthy_makespan: 10_000,
            tasks: 64,
            completed: 64,
            retransmits: 3,
            dead_letters: 1,
            rerouted_packets: 12,
            reconfigurations: 2,
        }
    }

    #[test]
    fn slowdown_is_integer_permille() {
        assert_eq!(sample("x", 10_000).slowdown_permille(), 1000);
        assert_eq!(sample("x", 15_500).slowdown_permille(), 1550);
        assert_eq!(sample("x", 10_001).slowdown_permille(), 1000);
        let mut r = sample("x", 5);
        r.healthy_makespan = 0;
        assert_eq!(r.slowdown_permille(), 1000);
    }

    #[test]
    fn rendering_is_deterministic_and_row_matches_header() {
        let rows = vec![sample("healthy", 10_000), sample("combined", 13_750)];
        let a = DegradationReport::render(&rows);
        let b = DegradationReport::render(&rows);
        assert_eq!(a, b);
        assert!(a.contains("fault mix"));
        assert!(a.contains("combined"));
        assert!(a.contains("1.375"));
        assert!(a.contains("64/64"));
    }
}
