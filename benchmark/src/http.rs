//! A minimal HTTP/1.1 keep-alive client over `std::net`, and the
//! response checks the serve workload applies to every answer.

use crate::product::{fnv1a, Result};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `ETag` header value, quotes included.
    pub etag: Option<String>,
    /// Body bytes (`Content-Length` of them).
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the answer is well-formed for a data route: a 200 whose
    /// ETag is the FNV-1a of its body, or an empty 304.
    pub fn verify(&self) -> std::result::Result<(), String> {
        match self.status {
            200 => match &self.etag {
                Some(tag) if *tag == etag_of(&self.body) => Ok(()),
                Some(tag) => Err(format!(
                    "ETag {tag} is not FNV-1a(body) = {}",
                    etag_of(&self.body)
                )),
                None => Err("200 without an ETag".to_string()),
            },
            304 if self.body.is_empty() => Ok(()),
            304 => Err("304 with a body".to_string()),
            other => Err(format!("status {other}")),
        }
    }
}

/// The strong ETag `prudentia serve` gives a body: FNV-1a over the body
/// bytes followed by one NUL (its key construction), as 16 hex digits
/// in quotes. Recomputed here from the bytes on the wire.
pub fn etag_of(body: &[u8]) -> String {
    format!("\"{:016x}\"", fnv1a(&[body, &[0]]))
}

/// One keep-alive connection with a persistent parse buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The bytes of a GET for `path`, conditional when `if_none_match`
    /// is given.
    pub fn request_bytes(path: &str, if_none_match: Option<&str>) -> Vec<u8> {
        match if_none_match {
            Some(tag) => {
                format!("GET {path} HTTP/1.1\r\nHost: bench\r\nIf-None-Match: {tag}\r\n\r\n")
            }
            None => format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        }
        .into_bytes()
    }

    /// Send prepared request bytes and read one response.
    pub fn round_trip(&mut self, request: &[u8]) -> Result<Response> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        self.read_response()
    }

    /// GET `path` and read the response.
    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> Result<Response> {
        self.round_trip(&Conn::request_bytes(path, if_none_match))
    }

    /// Send `depth` pipelined copies of a request in one write and read
    /// every response; returns how many were 200/304.
    pub fn pipelined(&mut self, batch: &[u8], depth: usize) -> Result<usize> {
        self.stream
            .write_all(batch)
            .map_err(|e| format!("send: {e}"))?;
        let mut ok = 0;
        for _ in 0..depth {
            let r = self.read_response()?;
            ok += usize::from(matches!(r.status, 200 | 304));
        }
        Ok(ok)
    }

    fn fill(&mut self) -> Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn read_response(&mut self) -> Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let (status, etag, len) = parse_head(&self.buf[..head_end])?;
        self.buf.drain(..head_end + 4);
        while self.buf.len() < len {
            self.fill()?;
        }
        let body = self.buf.drain(..len).collect();
        Ok(Response { status, etag, body })
    }
}

/// Status, ETag and content length of a response head.
fn parse_head(head: &[u8]) -> Result<(u16, Option<String>, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.split(' ').next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let mut etag = None;
    let mut len = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        if name.eq_ignore_ascii_case("etag") {
            etag = Some(value.trim().to_string());
        } else if name.eq_ignore_ascii_case("content-length") {
            len = value
                .trim()
                .parse()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
        }
    }
    Ok((status, etag, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etag_is_recomputed_as_fnv1a_of_the_body() {
        // The product's own key construction over the same body.
        let body = "contender\\incumbent,a,b\na,1.0,2.0\n";
        let theirs = format!("\"{:016x}\"", prudentia_store::fnv1a_key(&[body]));
        assert_eq!(etag_of(body.as_bytes()), theirs);
        let ok = Response {
            status: 200,
            etag: Some(theirs),
            body: body.as_bytes().to_vec(),
        };
        assert_eq!(ok.verify(), Ok(()));
        let tampered = Response {
            body: b"contender\\incumbent,a,b\na,1.0,2.1\n".to_vec(),
            ..ok.clone()
        };
        assert!(tampered.verify().unwrap_err().contains("not FNV-1a"));
        let untagged = Response { etag: None, ..ok };
        assert!(untagged.verify().is_err());
    }

    #[test]
    fn only_200_and_empty_304_pass() {
        let r = |status, body: &[u8]| Response {
            status,
            etag: None,
            body: body.to_vec(),
        };
        assert_eq!(r(304, b"").verify(), Ok(()));
        assert!(r(304, b"x").verify().is_err());
        assert!(r(503, b"{}").verify().is_err());
        assert!(r(404, b"").verify().is_err());
    }

    #[test]
    fn heads_parse_and_malformed_heads_are_errors() {
        let head =
            b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nETag: \"00ff\"\r\ncontent-length: 12";
        assert_eq!(
            parse_head(head).unwrap(),
            (200, Some("\"00ff\"".to_string()), 12)
        );
        assert_eq!(
            parse_head(b"HTTP/1.1 304 Not Modified").unwrap(),
            (304, None, 0)
        );
        assert!(parse_head(b"HTP 200").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: many").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nno colon here").is_err());
    }
}
