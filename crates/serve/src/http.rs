//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! job API: request-line + headers + `Content-Length` bodies in,
//! `Connection: close` JSON responses out. No external dependencies; the
//! build environment is offline and the API surface is seven routes.
//!
//! Limits are deliberate: request lines and headers are capped, bodies are
//! capped at [`MAX_BODY`], sockets carry per-read timeouts, and the whole
//! request must arrive within a total deadline ([`REQUEST_DEADLINE`] by
//! default), so one slow or abusive client holds the connection handler
//! serving it for at most that long, and no other connection waits for it
//! (the server starts another handler). The per-read timeout alone is not
//! enough: a slowloris client dripping one byte per timeout window would
//! keep every individual read "making progress" indefinitely — the total
//! deadline closes that hole.
#![expect(
    clippy::disallowed_methods,
    reason = "socket read deadline against slow-loris peers is real time by definition"
)]

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body, bytes. Scenario specs are small; a
/// 10k-op script is well under this.
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted header section, bytes.
const MAX_HEADER_BYTES: usize = 16 << 10;
/// Per-socket read/write timeout (one idle gap, not the whole request).
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Default total per-request deadline: request line + headers + body must
/// all arrive within this window, however steadily the bytes drip.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// A parsed request: method, path, body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased).
    pub method: String,
    /// Request target, e.g. `/jobs/3/result` (query strings are kept).
    pub path: String,
    /// The body (empty when there was no `Content-Length`).
    pub body: String,
}

/// A response to serialize: status code plus JSON (or text) body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (errors before a body can be formed).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
        }
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Errors that end a connection with a 4xx before dispatch.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line or headers.
    Malformed(String),
    /// Body longer than [`MAX_BODY`].
    TooLarge,
    /// The client idled past a read timeout or dripped bytes past the
    /// total request deadline (answered with 408).
    Timeout,
    /// Socket error / early close.
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Whether an IO error is a socket read timeout.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read and parse one request, requiring the whole request to arrive
/// within `deadline` ([`REQUEST_DEADLINE`] unless the server was given
/// another). Returns `Ok(None)` on a clean immediate close (no bytes). Each individual read also keeps the idle
/// [`IO_TIMEOUT`]; the socket read timeout is re-armed with the smaller of
/// the two before every read that reaches the socket (already-buffered
/// bytes are drained without re-arming), so neither a silent client nor a
/// byte-dripping one can hold the thread past the deadline.
pub fn read_request_deadline(
    stream: &TcpStream,
    deadline: Duration,
) -> Result<Option<Request>, ParseError> {
    let started = Instant::now();
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // The reader borrows the socket (`Read for &TcpStream`); a
    // `try_clone` would cost a `dup` and a `close` per request.
    let mut reader = BufReader::new(stream);
    let arm = |sock: &TcpStream| -> Result<(), ParseError> {
        let left = deadline
            .checked_sub(started.elapsed())
            .filter(|d| !d.is_zero())
            .ok_or(ParseError::Timeout)?;
        sock.set_read_timeout(Some(left.min(IO_TIMEOUT)))?;
        Ok(())
    };
    // `BufReader::read_line` loops over as many socket reads as it takes
    // to find `\n`, with the timeout armed only once — a byte-dripping
    // client could stretch a single line far past the deadline. Reading
    // byte-wise out of the buffer re-arms before every underlying read.
    let read_line = |reader: &mut BufReader<&TcpStream>, buf: &mut String| {
        let mut bytes = Vec::new();
        loop {
            // Re-arming costs an `Instant::elapsed` plus a setsockopt
            // syscall; bytes already buffered cost neither — only arm
            // before reads that will actually hit the socket.
            if reader.buffer().is_empty() {
                arm(reader.get_ref())?;
            }
            let mut byte = [0u8; 1];
            let n = reader.read(&mut byte).map_err(|e| {
                if is_timeout(&e) {
                    ParseError::Timeout
                } else {
                    ParseError::Io(e)
                }
            })?;
            if n == 0 {
                break;
            }
            bytes.push(byte[0]);
            if byte[0] == b'\n' {
                break;
            }
            if bytes.len() > MAX_HEADER_BYTES {
                return Err(ParseError::Malformed("header line too long".into()));
            }
        }
        let n = bytes.len();
        buf.push_str(
            &String::from_utf8(bytes)
                .map_err(|_| ParseError::Malformed("header is not UTF-8".into()))?,
        );
        Ok(n)
    };
    let mut line = String::new();
    if read_line(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1") => (m.to_uppercase(), p.to_string()),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line: {}",
                line.trim_end()
            )))
        }
    };
    // Headers: we only need Content-Length.
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let mut header = String::new();
        if read_line(&mut reader, &mut header)? == 0 {
            return Err(ParseError::Malformed("eof in headers".into()));
        }
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::Malformed("header section too large".into()));
        }
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad content-length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    // Body, in chunks so the deadline is re-checked as bytes drip in.
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        if reader.buffer().is_empty() {
            arm(reader.get_ref())?;
        }
        let n = reader.read(&mut body[filled..]).map_err(|e| {
            if is_timeout(&e) {
                ParseError::Timeout
            } else {
                ParseError::Io(e)
            }
        })?;
        if n == 0 {
            return Err(ParseError::Malformed("eof in body".into()));
        }
        filled += n;
    }
    let body =
        String::from_utf8(body).map_err(|_| ParseError::Malformed("body is not UTF-8".into()))?;
    Ok(Some(Request { method, path, body }))
}

/// Serialize `resp` onto `stream` in one `write_all`, head and body
/// together. The connection is one-shot (`Connection: close`).
pub fn write_response(mut stream: &TcpStream, resp: &Response) -> io::Result<()> {
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    stream.write_all(message.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::thread;

    /// Push raw bytes at a socket pair and parse them server-side.
    fn parse_raw(raw: &'static [u8]) -> Result<Option<Request>, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw).unwrap();
            // Keep the socket open until the server has read everything.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (stream, _) = listener.accept().unwrap();
        let out = read_request_deadline(&stream, REQUEST_DEADLINE);
        drop(stream);
        client.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"nx\":16}")
                .unwrap()
                .expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"nx\":16}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /jobs/3 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/3");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_request_line_is_an_error() {
        assert!(matches!(
            parse_raw(b"nonsense\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_content_length_rejected() {
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n"),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn immediate_close_is_none() {
        assert!(parse_raw(b"").unwrap().is_none());
    }

    #[test]
    fn response_roundtrip_over_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request_deadline(&stream, REQUEST_DEADLINE)
                .unwrap()
                .unwrap();
            assert_eq!(req.path, "/healthz");
            write_response(&stream, &Response::json(200, "{\"ok\":true}")).unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        for code in [200, 201, 400, 404, 405, 408, 409, 413, 422, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }

    #[test]
    fn slow_drip_client_hits_the_total_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Drip a byte at a time, each gap well inside any per-read
            // timeout, never finishing the request line. Only a *total*
            // deadline catches this.
            for b in b"GET /jobs HTTP/1.1\r".iter().cycle().take(200) {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let out = read_request_deadline(&stream, Duration::from_millis(300));
        assert!(
            matches!(out, Err(ParseError::Timeout)),
            "expected timeout, got {out:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "deadline must bound the wait, waited {:?}",
            started.elapsed()
        );
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn silent_client_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            // Connect and say nothing for longer than the deadline.
            thread::sleep(Duration::from_millis(600));
            drop(s);
        });
        let (stream, _) = listener.accept().unwrap();
        let out = read_request_deadline(&stream, Duration::from_millis(150));
        assert!(
            matches!(out, Err(ParseError::Timeout)),
            "expected timeout, got {out:?}"
        );
        drop(stream);
        client.join().unwrap();
    }

    proptest! {
        /// Whatever bytes arrive, after whatever plausible start, the reader
        /// comes back — `Ok`, or an `Err` the server answers with a 4xx or a
        /// closed connection, never a panic — inside the deadline, whether
        /// the client half-closes after writing or goes quiet with the
        /// socket open.
        #[test]
        fn arbitrary_bytes_return_inside_the_deadline(
            raw in proptest::collection::vec(any::<u8>(), 0..600),
            head in 0usize..4,
            goes_quiet in any::<bool>(),
        ) {
            const DEADLINE: Duration = Duration::from_millis(200);
            // Reach the header and body loops, not only the request line.
            let heads: [&[u8]; 4] = [
                b"",
                b"POST /jobs HTTP/1.1\r\n",
                b"POST /jobs HTTP/1.1\r\nContent-Length: 700\r\n\r\n",
                b"GET / HTTP/1.1\r\nContent-Length: ",
            ];
            let bytes = [heads[head], raw.as_slice()].concat();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (answered, wait) = mpsc::channel::<()>();
            let client = thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(&bytes);
                if !goes_quiet {
                    let _ = s.shutdown(std::net::Shutdown::Write);
                }
                // Hold the socket until the server side has returned.
                let _ = wait.recv();
            });
            let (stream, _) = listener.accept().unwrap();
            let started = Instant::now();
            let out = read_request_deadline(&stream, DEADLINE);
            let waited = started.elapsed();
            drop(answered);
            client.join().unwrap();
            // Scheduling slack on a loaded host; a missed deadline would
            // show as the 10 s idle timeout or a hang.
            prop_assert!(waited < DEADLINE + Duration::from_secs(1), "waited {:?}", waited);
            if let Ok(Some(req)) = out {
                prop_assert!(req.body.len() <= MAX_BODY);
            }
        }
    }
}
