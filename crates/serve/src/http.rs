//! Hand-rolled HTTP/1.1, in the house style of the vendored JSON
//! parser: no dependencies, explicit state, hard input caps.
//!
//! The daemon speaks the smallest useful subset of HTTP/1.1:
//!
//! * one request per connection — every response carries
//!   `Connection: close`, so clients never need to parse framing beyond
//!   "read until EOF";
//! * request bodies are framed by `Content-Length` only (no chunked
//!   uploads — a TOML spec is a few KB);
//! * streaming responses (the NDJSON event feed) send headers without a
//!   `Content-Length` and are close-delimited, which every HTTP client
//!   and `curl` handle natively.
//!
//! Caps: request head (request line + headers) ≤ 64 KiB, body ≤ 4 MiB.
//! Every parse error carries the status the server answers with: 413 for
//! a declared body over the cap, 400 for everything else.

use std::io::{Read, Write};

/// Request head cap: request line + headers.
pub const MAX_HEAD: usize = 64 * 1024;
/// Request body cap (a scenario spec is a few KB; 4 MiB is generous).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, query string stripped (`/jobs/3/events`).
    pub path: String,
    /// Request body (`Content-Length`-framed; empty when absent).
    pub body: Vec<u8>,
}

/// Parse one request from a stream. Reads exactly the head plus the
/// declared body — nothing beyond — so the connection stays in a known
/// state for the response. Errors are `(status, human-readable reason)`
/// with status 400 or 413.
pub fn parse_request(stream: &mut dyn Read) -> Result<Request, (u16, String)> {
    let bad = |why: String| (400, why);
    let head = read_head(stream).map_err(bad)?;
    let text = std::str::from_utf8(&head).map_err(|_| bad("request head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad(format!("malformed request line: {request_line:?}")));
    }
    let path = target.split_once('?').map_or(target, |(path, _query)| path);

    // Every header line must be well formed; the first of each framing
    // header is the one that counts.
    let (mut length, mut coding) = (None, None);
    for line in lines.filter(|line| !line.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header line: {line:?}")));
        };
        let slot = match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => &mut length,
            "transfer-encoding" => &mut coding,
            _ => continue,
        };
        slot.get_or_insert(value.trim());
    }

    let content_length = match length {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(format!("bad Content-Length: {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY {
        let why = format!("body of {content_length} bytes exceeds the {MAX_BODY}-byte cap");
        return Err((413, why));
    }
    // Read as an empty body, a chunked upload would leave its chunks
    // unread on the socket and the spec silently ignored.
    if let Some(coding) = coding {
        return Err(bad(format!(
            "Transfer-Encoding: {coding} is not supported; frame the body with Content-Length"
        )));
    }
    // Grown as bytes arrive, not allocated from the declared length: a
    // peer that declares 4 MiB and stalls holds only what it sent.
    let mut body = Vec::new();
    let got = stream
        .take(content_length as u64)
        .read_to_end(&mut body)
        .map_err(|e| bad(format!("body read error: {e}")))?;
    if got < content_length {
        return Err(bad(format!(
            "short body read: {got} of {content_length} bytes"
        )));
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Read up to and including the `\r\n\r\n` head terminator, one byte at
/// a time (heads are tiny; simplicity beats buffering cleverness that
/// would over-read into the body).
fn read_head(stream: &mut dyn Read) -> Result<Vec<u8>, String> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err("connection closed before request head completed".into()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("read error in request head: {e}")),
        }
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(head);
        }
        if head.len() > MAX_HEAD {
            return Err(format!("request head exceeds the {MAX_HEAD}-byte cap"));
        }
    }
}

/// Canonical reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response: status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, body. One call per connection.
pub fn write_response(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Write the head of a close-delimited streaming response (no
/// `Content-Length`); the caller then writes body bytes as they become
/// available and closes the connection to terminate.
pub fn write_stream_head(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body_and_query() {
        let raw = b"POST /jobs?pretty=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_request(&mut &raw[..]).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /jobs/3/events HTTP/1.1\r\n\r\n";
        let req = parse_request(&mut &raw[..]).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/3/events");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        for raw in [
            &b"not http\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET / SMTP/1.0\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: tall\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..],
        ] {
            assert!(parse_request(&mut &raw[..]).is_err(), "accepted {raw:?}");
        }
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let (status, err) = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(status, 413);
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn rejects_chunked_uploads_by_name() {
        let raw =
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        let (status, err) = parse_request(&mut &raw[..]).unwrap_err();
        assert_eq!(status, 400);
        assert!(err.contains("Transfer-Encoding: chunked"), "{err}");
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn stream_head_omits_content_length() {
        let mut out = Vec::new();
        write_stream_head(&mut out, 200, "application/x-ndjson").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
