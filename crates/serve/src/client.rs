//! A minimal blocking HTTP/1.1 client for the service — enough for the
//! CLI `client` subcommand, the CI smoke step, and the loopback e2e
//! tests. One request per connection (`Connection: close`).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{read_response, ClientResponse};

/// Issues one request and reads the full response.
///
/// `body: None` sends a bare request (use for `GET`); `Some(body)`
/// sends it with `content-length`. `timeout` bounds both connect and
/// each read/write syscall.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, body, &[], timeout)
}

/// [`request`] with caller-supplied extra headers (e.g.
/// `("if-none-match", "\"suit-…\"")` for conditional requests).
/// Header names and values must be free of CR/LF — this client is for
/// trusted in-tree callers, but refuse header injection anyway.
pub fn request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_raw(
        addr,
        method,
        path,
        body.map(|b| (b.as_bytes(), "application/json")),
        headers,
        timeout,
    )
}

/// Issues one request with a binary body (e.g. a packed `SUITTRC3`
/// container for `POST /v1/trace`), sent as `application/octet-stream`.
pub fn request_bytes(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_raw(
        addr,
        method,
        path,
        Some((body, "application/octet-stream")),
        &[],
        timeout,
    )
}

/// The shared transport: `body` is raw bytes plus the `content-type`
/// to declare for them.
fn request_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&[u8], &str)>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let sock_addr: std::net::SocketAddr = addr.parse().map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("invalid address '{addr}': {e}"),
        )
    })?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    for (name, value) in headers {
        if name.contains(['\r', '\n', ':']) || value.contains(['\r', '\n']) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid header '{name}'"),
            ));
        }
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some((b, content_type)) = body {
        head.push_str(&format!(
            "content-type: {content_type}\r\ncontent-length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some((b, _)) = body {
        stream.write_all(b)?;
    }
    stream.flush()?;
    read_response(&mut stream).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// [`request`] with outcome folded to `Result<body, error-text>` —
/// non-2xx statuses become `Err` carrying the server's message.
pub fn request_text(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<String, String> {
    let resp = request(addr, method, path, body, timeout).map_err(|e| e.to_string())?;
    let text = resp.text()?.to_string();
    if (200..300).contains(&resp.status) {
        Ok(text)
    } else {
        Err(format!("HTTP {}: {text}", resp.status))
    }
}
