//! The `fem2-serve` binary under a reader that closes early: `submit
//! --wait` prints the submission line, then the outcome once the job is
//! done. A reader that takes one line and closes must leave the binary
//! with status 0 and nothing on stderr, not a broken-pipe panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

use fem2_serve::{start, ServeOptions};

#[test]
fn submit_wait_into_a_reader_that_closes_after_one_line_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("fem2-serve-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let job = dir.join("job.json");
    std::fs::write(&job, r#"{"nx":20,"ny":20}"#).expect("job file");
    let server = start(&ServeOptions::new(dir.join("data"))).expect("server starts");

    let mut child = Command::new(env!("CARGO_BIN_EXE_fem2-serve"))
        .args(["submit", "--addr", &server.addr().to_string(), "--wait"])
        .arg(&job)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fem2-serve runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    // The reader is dropped here, closing the pipe while the job runs.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("fem2-serve exits");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(first.starts_with("201: "), "first line: {first:?}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(status.success(), "{status}");
}
