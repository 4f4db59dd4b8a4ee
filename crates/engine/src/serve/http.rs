//! Minimal HTTP/1.1 over `std::net` for the serve subsystem.
//!
//! Same no-dependency discipline as the no-serde JSON layer: this is the
//! slice of HTTP the solver service needs — request line + headers +
//! `Content-Length` bodies in, fixed-length or chunked responses out —
//! not a general-purpose server framework. Every response carries
//! `Connection: close`, so clients read to EOF and each request gets a
//! fresh connection; that keeps the protocol state machine trivial and
//! makes graceful drain (count open connections to zero) exact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// A parsed request: method, path (query split off), and the body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path component of the request target (no query string).
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// True when the query string contains `key=1` or a bare `key`
    /// (`/sweep/report?stable=1`). No percent-decoding — the serve API
    /// only uses flag-shaped parameters.
    pub fn query_flag(&self, key: &str) -> bool {
        self.query
            .split('&')
            .any(|kv| kv == key || kv == format!("{key}=1") || kv == format!("{key}=true"))
    }
}

/// Why a request could not be read. `Malformed` turns into a 400 and
/// `TooLarge` into a 413; I/O errors just drop the connection.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not an HTTP/1.x request we accept.
    Malformed(&'static str),
    /// The declared body exceeds the server's limit.
    TooLarge,
    /// The socket failed mid-read (client gone, timeout).
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Hard cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Reads one request from the stream. `max_body` bounds `Content-Length`;
/// a head over 64 KiB is [`HttpError::TooLarge`] and a head that
/// is not UTF-8 is [`HttpError::Malformed`].
pub fn read_request(stream: impl Read, max_body: usize) -> Result<Request, HttpError> {
    // The head is read through a `take` one byte past its cap, *below* the
    // buffer: an unterminated line can then pull at most that many bytes
    // off the wire, whatever the buffer reads ahead. The limit is lifted
    // to the declared body length once the head is parsed.
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64 + 1));
    let mut head_bytes = 0;
    let line = read_head_line(&mut reader, &mut head_bytes)?;
    if line.is_empty() {
        return Err(HttpError::Malformed("empty request"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("not an HTTP/1.x request"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut head_bytes)?;
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    // Part of the body may already sit in the buffer; the rest is at most
    // `content_length` more bytes from the stream.
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Reads a socket under one deadline for a whole request: before each
/// read, the socket's read timeout becomes the time left. A per-read
/// timeout alone never trips on a client that trickles a byte at a time.
pub struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Reads `stream` until `deadline`, then fails with
    /// [`std::io::ErrorKind::TimedOut`].
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineReader { stream, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one head line, newline included, adding its length to
/// `head_bytes` and failing once the running total passes
/// [`MAX_HEAD_BYTES`].
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, HttpError> {
    let mut raw = Vec::new();
    *head_bytes += reader.read_until(b'\n', &mut raw)?;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
    String::from_utf8(raw).map_err(|_| HttpError::Malformed("request head is not UTF-8"))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response (JSON bodies throughout).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A chunked-transfer NDJSON response in progress. Headers go out at
/// construction — before the sweep computes — so clients observe
/// admission immediately; each record is one chunk; [`Chunked::finish`]
/// writes the terminating zero chunk.
pub struct Chunked<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> Chunked<'a> {
    /// Starts a 200 chunked NDJSON response.
    pub fn start(stream: &'a mut TcpStream) -> std::io::Result<Self> {
        stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        stream.flush()?;
        Ok(Chunked { stream })
    }

    /// Writes one NDJSON record (a trailing newline is appended) as one
    /// chunk and flushes, so slow sweeps still stream cell-by-cell.
    pub fn record(&mut self, line: &str) -> std::io::Result<()> {
        let payload_len = line.len() + 1;
        write!(self.stream, "{payload_len:x}\r\n{line}\n\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked body.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Decodes a chunked transfer body (used by the serve tests and the
/// `repro serve` load generator, which read responses to EOF).
pub fn decode_chunked(mut body: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = body.windows(2).position(|w| w == b"\r\n")?;
        let size_line = std::str::from_utf8(&body[..line_end]).ok()?;
        let size = usize::from_str_radix(size_line.trim(), 16).ok()?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Some(out);
        }
        if body.len() < size + 2 {
            return None;
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

/// A tiny blocking HTTP client for the load generator and tests: sends one
/// request, reads to EOF (the server always closes), returns
/// `(status, body)` with chunked bodies decoded.
pub fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    send_request_head(&mut stream, method, target, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad HTTP response"))
}

/// Writes the request head + body for `http_request` (split out so callers
/// that need to read the response incrementally — e.g. waiting for headers
/// before firing a second request — can reuse the wire format).
pub fn send_request_head(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: regenr\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Splits a raw response into `(status, decoded body)`.
pub fn parse_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let chunked = lines.any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let body = &raw[head_end + 4..];
    if chunked {
        decode_chunked(body).map(|b| (status, b))
    } else {
        Some((status, body.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_roundtrip() {
        let encoded = b"5\r\nhello\r\n7\r\n world!\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(encoded).unwrap(), b"hello world!");
        assert_eq!(decode_chunked(b"0\r\n\r\n").unwrap(), b"");
        // Truncated bodies are a decode failure, not a panic.
        assert!(decode_chunked(b"5\r\nhel").is_none());
        assert!(decode_chunked(b"zz\r\n\r\n").is_none());
    }

    #[test]
    fn parses_fixed_length_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"{}");
    }

    /// Counts the bytes a reader hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// One unterminated header line must not grow the server: reading
    /// stops one byte past the head cap, and the request is too large.
    #[test]
    fn unterminated_head_line_is_bounded() {
        for prefix in ["", "GET /healthz HTTP/1.1\r\nX-Pad: "] {
            let mut wire = prefix.as_bytes().to_vec();
            wire.resize(1 << 20, b'a');
            let mut src = Counting {
                inner: &wire[..],
                read: 0,
            };
            let res = read_request(&mut src, 16 << 20);
            assert!(matches!(res, Err(HttpError::TooLarge)), "{res:?}");
            assert!(
                src.read <= MAX_HEAD_BYTES + 1,
                "consumed {} bytes of an unterminated head",
                src.read
            );
        }
    }

    /// A client that trickles one byte every 20 ms never trips a per-read
    /// timeout; the request deadline still ends the read.
    #[test]
    fn trickled_request_hits_the_deadline() {
        use std::time::Duration;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /healthz HTTP/1.1\r\nX-Slow: "
                .iter()
                .cycle()
                .take(100)
            {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let t0 = Instant::now();
        let reader = DeadlineReader::new(&stream, t0 + Duration::from_millis(200));
        let res = read_request(reader, 1024);
        let took = t0.elapsed();
        assert!(matches!(res, Err(HttpError::Io(_))), "{res:?}");
        assert!(took < Duration::from_secs(1), "read took {took:?}");
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn query_flags() {
        let req = Request {
            method: "POST".into(),
            path: "/sweep/report".into(),
            query: "stable=1&x=2".into(),
            body: vec![],
        };
        assert!(req.query_flag("stable"));
        assert!(!req.query_flag("x"));
        assert!(!req.query_flag("verbose"));
    }
}
