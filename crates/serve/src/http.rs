//! Hand-rolled, zero-dependency HTTP/1.1 over blocking sockets.
//!
//! Deliberately small: `Content-Length` framing only (no chunked
//! transfer), a bounded request line, a bounded header block, and a
//! bounded body. Anything outside those bounds is rejected *before*
//! allocation proportional to attacker input, and every parse failure
//! is typed so the connection loop can choose between answering with a
//! 4xx/5xx and dropping the connection.
//!
//! Responses are written with a fixed header order and **no `Date`
//! header**: the serving determinism contract (wire bytes identical to
//! offline assignment) extends to the whole response, so nothing
//! clock-dependent may appear in it.

use std::io::{self, BufRead, Write};

/// Longest accepted request line (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …) as sent.
    pub method: String,
    /// Request target, e.g. `/v1/models/2`.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First value of the named header (name lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed off the wire.
#[derive(Debug)]
pub enum ParseError {
    /// The socket failed or the peer disconnected mid-request; there
    /// is nobody left to answer, so the connection is simply dropped.
    Io(io::Error),
    /// Malformed request (400).
    Bad(String),
    /// A declared size exceeds a bound (413).
    TooLarge(String),
    /// A valid request using a feature this server does not implement,
    /// e.g. `Transfer-Encoding` (501).
    Unsupported(String),
}

impl ParseError {
    /// The HTTP status this error maps to (`None` for I/O failures,
    /// which get no response at all).
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::Io(_) => None,
            ParseError::Bad(_) => Some(400),
            ParseError::TooLarge(_) => Some(413),
            ParseError::Unsupported(_) => Some(501),
        }
    }

    /// Human-readable reason for the error response body.
    pub fn message(&self) -> String {
        match self {
            ParseError::Io(e) => e.to_string(),
            ParseError::Bad(m) | ParseError::TooLarge(m) | ParseError::Unsupported(m) => m.clone(),
        }
    }
}

/// Read one line (up to `\n`, stripping the optional `\r`) without ever
/// buffering more than `max` bytes. `Ok(None)` is a clean EOF before
/// any byte of the line.
fn read_line_bounded<R: BufRead>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(ParseError::Io)?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(ParseError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                )))
            };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + pos > max {
                return Err(ParseError::TooLarge(format!("line exceeds {max} bytes")));
            }
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
        let n = buf.len();
        if line.len() + n > max {
            return Err(ParseError::TooLarge(format!("line exceeds {max} bytes")));
        }
        line.extend_from_slice(buf);
        r.consume(n);
    }
}

/// Read one request off `r`, writing an interim `100 Continue` to `w`
/// when the client asked for one. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive teardown).
///
/// # Errors
///
/// [`ParseError`] — see its variants for the status each maps to.
pub fn read_request<R: BufRead, W: Write>(
    r: &mut R,
    w: &mut W,
) -> Result<Option<Request>, ParseError> {
    let Some(line) = read_line_bounded(r, MAX_REQUEST_LINE)? else {
        return Ok(None);
    };
    let line =
        String::from_utf8(line).map_err(|_| ParseError::Bad("request line is not UTF-8".into()))?;
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Bad(format!("malformed request line {line:?}")));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Bad(format!("malformed method {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(ParseError::Bad(format!("malformed target {path:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(ParseError::Unsupported(format!(
                "unsupported protocol version {other:?}"
            )))
        }
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(raw) = read_line_bounded(r, MAX_HEADER_LINE)? else {
            return Err(ParseError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the header block",
            )));
        };
        if raw.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(ParseError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let raw = String::from_utf8(raw)
            .map_err(|_| ParseError::Bad("header line is not UTF-8".into()))?;
        if raw.starts_with(' ') || raw.starts_with('\t') {
            return Err(ParseError::Bad("obsolete header folding".into()));
        }
        let Some((name, value)) = raw.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header line {raw:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Bad(format!("malformed header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(ParseError::Unsupported(
            "Transfer-Encoding is not supported; use Content-Length".into(),
        ));
    }
    // RFC 9112 §6.3: a value other than plain digits, or two values
    // that differ, leave the body's length unknown, so the request is
    // rejected rather than framed by a guess (`usize::parse` alone would
    // take `+5`, and a first-match lookup would ignore a second value).
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let n = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(ParseError::Bad(format!("unparsable Content-Length {v:?}"))),
        };
        if content_length.is_some_and(|c| c != n) {
            return Err(ParseError::Bad("conflicting Content-Length headers".into()));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge(format!(
            "Content-Length {content_length} exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => http11,
    };
    if content_length > 0 && find("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    {
        w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| w.flush())
            .map_err(ParseError::Io)?;
    }

    let mut body = vec![0u8; content_length];
    io::Read::read_exact(r, &mut body).map_err(ParseError::Io)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    }))
}

/// One response, rendered with a fixed header order so equal responses
/// are byte-equal on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `X-Proclus-Generation`), in order.
    pub extra: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the convention for every API endpoint; `body`
    /// should already end with `\n`).
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error response `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::with_capacity(message.len() + 16);
        body.push_str("{\"error\":");
        crate::json_str(&mut body, message);
        body.push_str("}\n");
        Response::json(status, body)
    }

    /// Attach one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra.push((name, value));
        self
    }

    /// Serialize onto the socket. `keep_alive` controls the
    /// `Connection` header; the caller must honor the same decision.
    ///
    /// # Errors
    ///
    /// Any socket write failure (the caller drops the connection).
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        let mut sink = Vec::new();
        read_request(&mut BufReader::new(bytes), &mut sink)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/assign HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/assign");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn bare_lf_and_connection_close_are_honored() {
        let req = parse(b"GET /healthz HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive);
        // HTTP/1.0 defaults to close.
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_torn_request_is_io() {
        assert!(parse(b"").unwrap().is_none());
        assert!(matches!(parse(b"GET /x HT"), Err(ParseError::Io(_))));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: y\r\n"),
            Err(ParseError::Io(_))
        ));
        // Body shorter than Content-Length: premature disconnect.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn garbage_and_malformed_lines_are_bad_requests() {
        for raw in [
            b"\x00\x01\x02\x03\r\n\r\n".as_slice(),
            b"GETPATH\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET /x HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
        ] {
            match parse(raw) {
                Err(ParseError::Bad(_)) => {}
                other => panic!("{raw:?} must be Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        for v in ["+5", "-0", "5 5", "5,5", "0x5", "5.0", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {v}\r\n\r\nhello");
            match parse(raw.as_bytes()) {
                Err(ParseError::Bad(_)) => {}
                other => panic!("Content-Length {v:?} must be Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn conflicting_content_lengths_are_bad_requests() {
        for (a, b) in [("5", "6"), ("5", "0"), ("0", "5"), ("5", "+5")] {
            let raw = format!(
                "POST /x HTTP/1.1\r\nContent-Length: {a}\r\nHost: y\r\ncontent-length: {b}\r\n\r\nhello!"
            );
            match parse(raw.as_bytes()) {
                Err(ParseError::Bad(_)) => {}
                other => panic!("Content-Length {a} then {b} must be Bad, got {other:?}"),
            }
        }
        // Repeating the same length frames the body as one would.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_declarations_are_too_large() {
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::TooLarge(_))
        ));
        let long_line = [b'A'; MAX_REQUEST_LINE + 2];
        assert!(matches!(parse(&long_line), Err(ParseError::TooLarge(_))));
        let mut many = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&many), Err(ParseError::TooLarge(_))));
    }

    #[test]
    fn transfer_encoding_is_not_implemented() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Unsupported(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(ParseError::Unsupported(_))
        ));
    }

    #[test]
    fn expect_continue_gets_an_interim_response() {
        let mut sink = Vec::new();
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nok";
        let req = read_request(&mut BufReader::new(raw.as_slice()), &mut sink)
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(sink, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn responses_render_with_fixed_header_order() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}\n".into())
            .with_header("X-Proclus-Generation", "3".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: keep-alive\r\nX-Proclus-Generation: 3\r\n\r\n{\"ok\":true}\n"
        );
        assert!(!text.contains("Date:"), "responses must be clock-free");
    }

    #[test]
    fn error_bodies_escape_the_message() {
        let r = Response::error(400, "bad \"token\"");
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"bad \\\"token\\\"\"}\n"
        );
    }
}
