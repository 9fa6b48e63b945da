//! A tiny blocking HTTP client for the fem2-serve API, used by the CLI
//! subcommands (`submit`, `status`, `result`, `list`) and by tests. Same
//! zero-dependency constraint as the server: raw `TcpStream`, HTTP/1.1,
//! `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use serde::json::Value;

use crate::http::IO_TIMEOUT;

/// Issue one request and return `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response: {raw}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Poll `/jobs/<id>` until the job completes, then return the outcome
/// document from `/jobs/<id>/result`. Errors on job failure or timeout.
pub fn wait_done(addr: SocketAddr, id: u64) -> Result<Value, String> {
    let (settled, body) = poll_settled(addr, id)?;
    if settled != "done" {
        return Err(format!("job {id} {settled}: {body}"));
    }
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}/result"), None)?;
    if status != 200 {
        return Err(format!("GET /jobs/{id}/result -> {status}: {body}"));
    }
    let v = serde_json::parse_value(&body).map_err(|e| format!("bad result body: {e}"))?;
    v.get_field("outcome").cloned().map_err(|e| e.to_string())
}

/// Poll `/jobs/<id>` until the job settles (done, failed, or aborted) and
/// return the terminal status name. Unlike [`wait_done`], a failed or
/// aborted job is a normal answer here, not an error — the supervision
/// tests assert on exactly how jobs end.
pub fn wait_settled(addr: SocketAddr, id: u64) -> Result<String, String> {
    poll_settled(addr, id).map(|(settled, _)| settled)
}

/// The poll loop under [`wait_done`] and [`wait_settled`]: the terminal
/// status name and the `/jobs/<id>` body that carried it.
#[expect(
    clippy::disallowed_methods,
    reason = "client polling deadline is real time by definition"
)]
fn poll_settled(addr: SocketAddr, id: u64) -> Result<(String, String), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} -> {status}: {body}"));
        }
        let v = serde_json::parse_value(&body).map_err(|e| format!("bad status body: {e}"))?;
        if let Value::Str(s) = v.get_field("status").map_err(|e| e.to_string())? {
            if matches!(s.as_str(), "done" | "failed" | "aborted") {
                return Ok((s.clone(), body));
            }
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} did not settle in time"));
        }
        thread::sleep(Duration::from_millis(20));
    }
}
