//! The whole `fem2-report` stdout is pinned byte for byte. Every column is
//! a simulated quantity, so the bytes only move when the model does; the
//! golden file is regenerated deliberately when they should.

use std::process::Command;

#[test]
fn report_matches_committed_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_fem2-report"))
        .output()
        .expect("fem2-report runs");
    assert!(
        out.status.success(),
        "fem2-report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("the report is UTF-8");
    let golden = include_str!("../../../tests/golden/fem2_report.txt");
    if let Some((i, (g, w))) = got
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "fem2-report drifted from tests/golden/fem2_report.txt at line {}:\n  got:    {g}\n  golden: {w}",
            i + 1
        );
    }
    assert_eq!(got, golden, "fem2-report length drifted from the golden");
}
