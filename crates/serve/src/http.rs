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
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Read byte-at-a-time until CRLFCRLF: simple and safe (the head is
    // tiny and reads are buffered by the kernel socket buffer).
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "request head truncated"));
            }
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(e),
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "request head too large"));
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
    }
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
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, headers, body }))
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
