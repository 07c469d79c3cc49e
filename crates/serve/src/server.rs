//! TCP and stdio front-ends over the [`ShardRouter`].
//!
//! Both speak the line-delimited JSON protocol of [`crate::protocol`]:
//! each request line — valid, malformed, not UTF-8, longer than
//! [`MAX_LINE_BYTES`], or a shutdown command — produces exactly one
//! response line on the connection (or stdout) it arrived on. Only EOF or
//! a read error ends a connection.

use crate::engine::DrainReport;
use crate::error::ServeError;
use crate::protocol::{parse_request, Outcome, RequestBody, Response};
use crate::router::ShardRouter;
use drq_telemetry::counter_add;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Longest request line the front-ends accept, in bytes, newline
/// excluded. A longer line is discarded up to its newline and answered
/// with one `bad_request`, so a client that never sends `\n` cannot grow
/// the server's buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads the next request line, stripping its `\n` or `\r\n` terminator.
/// Returns `None` at EOF or on a read error, `Some(Err)` for a line that
/// is over-long or not UTF-8, which the caller answers and then keeps
/// reading.
fn next_line<R: BufRead>(reader: &mut R) -> Option<Result<String, ServeError>> {
    let mut buf = Vec::new();
    // Room for the longest line plus its `\r\n`.
    let n = reader.by_ref().take(MAX_LINE_BYTES as u64 + 2).read_until(b'\n', &mut buf).ok()?;
    if n == 0 {
        return None;
    }
    let ended = buf.last() == Some(&b'\n');
    if ended {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        if !ended {
            // Drop the rest of the line without buffering it.
            reader.skip_until(b'\n').ok()?;
        }
        let detail = format!("request line longer than {MAX_LINE_BYTES} bytes");
        return Some(Err(ServeError::BadRequest { detail }));
    }
    Some(String::from_utf8(buf).map_err(|_| ServeError::BadRequest {
        detail: "request line is not valid UTF-8".into(),
    }))
}

/// Answers a line that could not become a request with one error response.
fn reject<W: Write>(writer: &Mutex<W>, error: ServeError) {
    counter_add!("serve/rejected_invalid", 1);
    write_response(writer, &Response { id: None, outcome: Outcome::Error { error } });
}

/// Writes one response line to a shared writer, flushing immediately so
/// the client never waits on a buffer. Write errors mean the client went
/// away; the response is dropped (there is no one left to read it).
fn write_response<W: Write>(writer: &Mutex<W>, response: &Response) {
    let mut w = writer.lock().unwrap();
    let _ = writeln!(w, "{}", response.to_json_line());
    let _ = w.flush();
}

/// Shutdown coordination shared between connection handlers and the
/// accept loop.
struct ShutdownCtl {
    requested: AtomicBool,
    drain_ms: AtomicU64,
}

/// A bound TCP server. Bind first (so the caller can learn the ephemeral
/// port), then [`TcpServer::run`] until a shutdown request arrives.
pub struct TcpServer {
    router: Arc<ShardRouter>,
    listener: TcpListener,
    ctl: Arc<ShutdownCtl>,
}

impl TcpServer {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind(router: Arc<ShardRouter>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            router,
            listener,
            ctl: Arc::new(ShutdownCtl {
                requested: AtomicBool::new(false),
                drain_ms: AtomicU64::new(1_000),
            }),
        })
    }

    /// The bound address (port resolved when binding to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket's address cannot be read.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a client sends `{"kind":"shutdown"}`,
    /// then drains every worker and returns the aggregate report.
    pub fn run(self) -> DrainReport {
        let addr = self.listener.local_addr().ok();
        for stream in self.listener.incoming() {
            if self.ctl.requested.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let router = Arc::clone(&self.router);
            let ctl = Arc::clone(&self.ctl);
            let listen_addr = addr;
            // Handlers are detached: one stalled client must not block the
            // accept loop, and a handler whose client disconnects exits on
            // its own when the read returns EOF.
            let _ = thread::Builder::new()
                .name("drq-serve-conn".to_string())
                .spawn(move || handle_connection(router, ctl, stream, listen_addr));
        }
        let drain_ms = self.ctl.drain_ms.load(Ordering::SeqCst);
        self.router.shutdown(drain_ms)
    }
}

/// One connection: read request lines, answer each with one response line.
fn handle_connection(
    router: Arc<ShardRouter>,
    ctl: Arc<ShutdownCtl>,
    stream: TcpStream,
    listen_addr: Option<SocketAddr>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    while let Some(line) = next_line(&mut reader) {
        let Ok(line) = line.map_err(|error| reject(&writer, error)) else { continue };
        if dispatch_line(&router, &line, &writer) == LineVerdict::Shutdown {
            let drain_ms = match parse_request(&line) {
                Ok(RequestBody::Shutdown { drain_ms }) => drain_ms,
                _ => 1_000,
            };
            ctl.drain_ms.store(drain_ms, Ordering::SeqCst);
            ctl.requested.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway connection.
            if let Some(addr) = listen_addr {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
}

/// What a request line asked the front-end to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineVerdict {
    /// Keep reading.
    Continue,
    /// The line was a shutdown command (already acknowledged).
    Shutdown,
}

/// Parses and dispatches one request line, writing exactly one response
/// line to `writer` (now, for malformed lines and shutdown acks; later,
/// from a worker, for admitted inferences).
fn dispatch_line<W: Write + Send + 'static>(
    router: &ShardRouter,
    line: &str,
    writer: &Arc<Mutex<W>>,
) -> LineVerdict {
    if line.trim().is_empty() {
        return LineVerdict::Continue;
    }
    match parse_request(line) {
        Err(error) => {
            reject(writer, error);
            LineVerdict::Continue
        }
        Ok(RequestBody::Shutdown { .. }) => {
            write_response(
                writer,
                &Response { id: None, outcome: Outcome::ShutdownAck },
            );
            LineVerdict::Shutdown
        }
        Ok(RequestBody::Infer(request)) => {
            let w = Arc::clone(writer);
            router.submit(
                request,
                Box::new(move |response| write_response(&w, &response)),
            );
            LineVerdict::Continue
        }
    }
}

/// Serves the protocol over stdin/stdout: reads request lines until EOF
/// or a shutdown command, then drains every worker.
pub fn serve_stdio(router: Arc<ShardRouter>) -> DrainReport {
    serve_lines(router, io::stdin().lock(), io::stdout())
}

/// Generic line-stream front-end (the stdio path, and directly testable).
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    router: Arc<ShardRouter>,
    mut reader: R,
    writer: W,
) -> DrainReport {
    let writer = Arc::new(Mutex::new(writer));
    let mut drain_ms = 1_000u64;
    while let Some(line) = next_line(&mut reader) {
        let Ok(line) = line.map_err(|error| reject(&writer, error)) else { continue };
        if dispatch_line(&router, &line, &writer) == LineVerdict::Shutdown {
            if let Ok(RequestBody::Shutdown { drain_ms: ms }) = parse_request(&line) {
                drain_ms = ms;
            }
            break;
        }
    }
    router.shutdown(drain_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use std::io::Cursor;

    /// A `Write` that appends into a shared buffer the test can inspect.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_gets_exactly_one_response() {
        let router = ShardRouter::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let input = concat!(
            "{\"id\":\"a\"}\n",
            "this is not json\n",
            "{\"id\":\"b\",\"sample_seed\":3}\n",
            "\n", // blank lines are ignored, not answered
            "{\"kind\":\"shutdown\",\"drain_ms\":2000}\n",
        );
        let buf = Arc::new(Mutex::new(Vec::new()));
        let report = serve_lines(router, Cursor::new(input), SharedBuf(Arc::clone(&buf)));
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "4 non-blank request lines -> 4 responses:\n{out}");
        assert_eq!(report.served, 2);
        assert_eq!(report.cancelled, 0);
        let statuses: Vec<String> = lines
            .iter()
            .map(|l| Response::parse(l).unwrap().status)
            .collect();
        // Responses interleave (the ack is written before the drain runs),
        // so assert on counts, not order.
        assert_eq!(statuses.iter().filter(|s| *s == "ok").count(), 3);
        assert_eq!(statuses.iter().filter(|s| *s == "error").count(), 1);
        let acks = lines
            .iter()
            .filter(|l| Response::parse(l).unwrap().draining)
            .count();
        assert_eq!(acks, 1);
    }

    #[test]
    fn bad_utf8_and_overlong_lines_are_one_error_each_and_serving_continues() {
        let router = ShardRouter::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut input = b"{\"id\":\"a\"}\n\xff\xfe\n{\"id\":\"b\"}\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        input.extend_from_slice(b"\n{\"id\":\"c\"}\n");
        let buf = Arc::new(Mutex::new(Vec::new()));
        let report = serve_lines(router, Cursor::new(input), SharedBuf(Arc::clone(&buf)));
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "one response per line:\n{out}");
        let ok = lines.iter().filter(|l| Response::parse(l).unwrap().status == "ok").count();
        assert_eq!(ok, 3, "{out}");
        assert!(out.contains("not valid UTF-8"), "{out}");
        assert!(out.contains(&format!("longer than {MAX_LINE_BYTES} bytes")), "{out}");
        assert_eq!(report.served, 3);
        assert_eq!(report.worker_restarts, 0);
    }

    #[test]
    fn line_cap_is_exact_and_long_lines_are_skipped_to_their_newline() {
        // MAX_LINE_BYTES of content plus `\r\n` is accepted; a line three
        // times the cap is one error, and the next line reads intact.
        let mut input = b"{\"id\":\"edge\"}".to_vec();
        input.resize(MAX_LINE_BYTES, b' ');
        input.extend_from_slice(b"\r\n");
        input.extend(std::iter::repeat_n(b'x', 3 * MAX_LINE_BYTES));
        input.extend_from_slice(b"\n{\"id\":\"next\"}");
        let mut reader = Cursor::new(input);
        let edge = next_line(&mut reader).unwrap().unwrap();
        assert_eq!(edge.len(), MAX_LINE_BYTES, "terminator stripped, content kept");
        assert!(next_line(&mut reader).unwrap().is_err());
        assert_eq!(next_line(&mut reader).unwrap().unwrap(), "{\"id\":\"next\"}");
        assert!(next_line(&mut reader).is_none(), "EOF");
    }

    #[test]
    fn deeply_nested_line_is_one_error_and_serving_continues() {
        let router = ShardRouter::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // 50,000 bytes of nesting would overflow the parser's stack if
        // depth were unbounded, killing every connected client.
        let hostile = format!("{{\"id\":{}", "[".repeat(50_000 - 6));
        let input = format!(
            "{hostile}\n{{\"id\":\"after\"}}\n{{\"kind\":\"shutdown\",\"drain_ms\":2000}}\n"
        );
        let buf = Arc::new(Mutex::new(Vec::new()));
        let report = serve_lines(router, Cursor::new(input), SharedBuf(Arc::clone(&buf)));
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "one response per line:\n{out}");
        assert_eq!(report.served, 1, "the line after the hostile one is served");
        let errors: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| Response::parse(l).unwrap().status == "error")
            .collect();
        assert_eq!(errors.len(), 1, "{out}");
        assert!(errors[0].contains("invalid json"), "{}", errors[0]);
        assert!(lines.iter().any(|l| Response::parse(l).unwrap().id.as_deref() == Some("after")));
    }
}
