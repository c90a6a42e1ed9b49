//! A hand-rolled, minimal HTTP/1.1 layer over [`std::net`].
//!
//! The build environment has no crates.io access, so the campaign service
//! speaks exactly the subset of HTTP/1.1 it needs and nothing more:
//! request line + headers + an optional `Content-Length` body on the way
//! in; status line + headers + either a `Content-Length` body or an
//! unbounded `Connection: close` stream (the NDJSON trial feed) on the way
//! out. Header and body sizes are capped so a misbehaving client cannot
//! balloon server memory, and all socket reads sit under the caller's
//! per-connection read timeout.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use enerj_apps::json::json_string;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (campaign specs are small JSON objects).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with the query string stripped (e.g. `/jobs/j000001/stream`).
    pub path: String,
    /// Decoded query pairs, in source order (`?from_line=3`).
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query value under `key`, when present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `stream`. `Ok(None)` means the peer closed the
/// connection before sending anything (a clean keep-alive end).
///
/// # Errors
///
/// Propagates socket errors (including read timeouts) and rejects oversized
/// or malformed heads/bodies with `InvalidData`.
pub fn read_request(stream: &mut impl Read) -> io::Result<Option<Request>> {
    let Some((head, mut body)) = read_head(stream, MAX_HEAD_BYTES)? else {
        return Ok(None);
    };
    let head = String::from_utf8(head)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line =
        lines.next().ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("malformed header `{line}`"))
        })?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "request body too large"));
    }
    read_body(stream, &mut body, content_length)?;
    Ok(Some(Request { method, path, query, headers, body }))
}

/// Reads a message head up to and including its blank line, in buffered
/// reads rather than one read per byte. Returns the head and the bytes that
/// arrived after it, which begin the body; `Ok(None)` when the peer closed
/// the connection before sending a byte.
///
/// # Errors
///
/// Propagates socket errors, and rejects a head longer than `max` bytes with
/// `InvalidData` and a head cut off by EOF with `UnexpectedEof`.
pub(crate) fn read_head(
    stream: &mut impl Read,
    max: usize,
) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "message head truncated"));
        }
        // The blank line may straddle two reads: rescan the last three bytes.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let end = buf[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| from + p + 4);
        if end.unwrap_or(buf.len()) > max {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "message head too large"));
        }
        if let Some(end) = end {
            let rest = buf.split_off(end);
            return Ok(Some((buf, rest)));
        }
    }
}

/// Completes a `len`-byte body from `prefix`, the bytes that arrived with
/// the head; bytes past `len` are dropped.
///
/// # Errors
///
/// Propagates socket errors, including EOF before `len` bytes.
pub(crate) fn read_body(
    stream: &mut impl Read,
    prefix: &mut Vec<u8>,
    len: usize,
) -> io::Result<()> {
    let have = prefix.len().min(len);
    prefix.resize(len, 0);
    stream.read_exact(&mut prefix[have..])
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect()
}

/// The reason phrase for the handful of status codes the service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a `Content-Length` body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response body.
pub fn write_json(stream: &mut TcpStream, status: u16, json: &str) -> io::Result<()> {
    write_response(stream, status, "application/json", json.as_bytes())
}

/// Starts an unbounded NDJSON stream: no `Content-Length`, the end of the
/// stream is the end of the connection (`Connection: close`). The caller
/// then writes raw NDJSON bytes directly to the stream.
pub fn write_stream_head(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// A retriable-or-not service error as the standard JSON error body:
/// `{"error": ..., "retriable": ..., "backoff_ms": ...}`. Every rejected
/// request carries one, so clients can distinguish "try again later"
/// (queue full, draining) from "never" (over quota, malformed spec).
pub fn error_body(error: &str, detail: &str, retriable: bool, backoff_ms: Option<u64>) -> String {
    format!(
        "{{\"error\":{},\"detail\":{},\"retriable\":{},\"backoff_ms\":{}}}",
        json_string(error),
        json_string(detail),
        retriable,
        match backoff_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const POST: &[u8] =
        b"POST /jobs?from_line=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"runs\":12}";

    fn assert_post(req: &Request) {
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query("from_line"), Some("3"));
        assert_eq!(req.headers.len(), 2);
        assert_eq!(req.body, b"{\"runs\":12}");
    }

    #[test]
    fn head_and_body_in_one_write() {
        let req = read_request(&mut &POST[..]).expect("parses").expect("some");
        assert_post(&req);
    }

    #[test]
    fn head_split_across_two_writes_at_every_offset() {
        for k in 1..POST.len() {
            // `chain` reads from the second piece only once the first is spent.
            let mut peer = (&POST[..k]).chain(&POST[k..]);
            let req = read_request(&mut peer).unwrap_or_else(|e| panic!("split at {k}: {e}"));
            assert_post(&req.expect("some"));
        }
    }

    #[test]
    fn bytes_past_the_declared_body_are_dropped() {
        let mut bytes = POST.to_vec();
        bytes.extend_from_slice(b"trailing garbage");
        let req = read_request(&mut &bytes[..]).expect("parses").expect("some");
        assert_post(&req);
    }

    #[test]
    fn oversized_head_is_refused() {
        let mut head = b"GET / HTTP/1.1\r\nX: ".to_vec();
        head.resize(MAX_HEAD_BYTES - 4, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        assert_eq!(head.len(), MAX_HEAD_BYTES);
        assert!(read_request(&mut &head[..]).is_ok(), "a head at the cap is fine");
        head.insert(20, b'a');
        let err = read_request(&mut &head[..]).expect_err("one byte over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A peer that never ends its head is cut off too, not buffered.
        let endless = vec![b'a'; MAX_HEAD_BYTES + 5000];
        let err = read_request(&mut &endless[..]).expect_err("no blank line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_head_and_body_are_errors_and_silence_is_none() {
        assert!(read_request(&mut &b""[..]).expect("clean close").is_none());
        let err = read_request(&mut &POST[..20]).expect_err("cut head");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_request(&mut &POST[..POST.len() - 1]).expect_err("cut body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("from_line=3&follow&x=a=b");
        assert_eq!(
            q,
            vec![
                ("from_line".to_owned(), "3".to_owned()),
                ("follow".to_owned(), String::new()),
                ("x".to_owned(), "a=b".to_owned()),
            ]
        );
    }

    #[test]
    fn error_bodies_are_well_formed_json() {
        let body = error_body("queue_full", "12 jobs pending", true, Some(500));
        let parsed = enerj_apps::json::Json::parse(&body).expect("valid JSON");
        assert_eq!(parsed.get("error").and_then(|e| e.as_str()), Some("queue_full"));
        assert_eq!(parsed.get("retriable"), Some(&enerj_apps::json::Json::Bool(true)));
        assert_eq!(parsed.get("backoff_ms").and_then(|b| b.as_i128()), Some(500));
    }
}
