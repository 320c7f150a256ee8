//! A minimal blocking client for the daemon's HTTP subset — enough for
//! the test suite, the CI smoke and the `obs-bench` load generator to
//! talk to a daemon without external dependencies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body (read to connection close).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of the named header (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send one request and read the full response.
///
/// # Errors
///
/// Returns the transport error, or [`io::ErrorKind::InvalidData`] when the
/// response status line cannot be parsed.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    request_with_headers(addr, method, target, &[], body)
}

/// [`request`] with extra request headers (e.g. `X-Trace-Id` for trace
/// propagation).
///
/// # Errors
///
/// Returns the transport error, or [`io::ErrorKind::InvalidData`] when the
/// response status line cannot be parsed.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }

    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// POST a model to `/compile` with a pre-rendered query string
/// (e.g. `"generator=hcg&arch=neon128"`; empty for defaults).
///
/// # Errors
///
/// Returns the transport error from [`request`].
pub fn compile(addr: SocketAddr, query: &str, model_xml: &[u8]) -> io::Result<ClientResponse> {
    let target = if query.is_empty() {
        "/compile".to_owned()
    } else {
        format!("/compile?{query}")
    };
    request(addr, "POST", &target, model_xml)
}
