//! The benchmark's own HTTP/1.1 client: one request per connection, as
//! `dmdc submit` speaks to the daemon. Kept apart from the repository's
//! client so the end-to-end gate depends only on the wire.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One exchange: connect, send, read to EOF, return `(status, body)`.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
             connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad("non-UTF-8 response"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response without a header boundary"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("response without a status code"))?;
    Ok((status, payload.to_string()))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_body_from_a_live_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).unwrap();
            let req = String::from_utf8_lossy(&buf[..n]).to_string();
            s.write_all(b"HTTP/1.1 202 Accepted\r\ncontent-length: 5\r\n\r\nhello")
                .unwrap();
            req
        });
        let (status, body) = request(&addr, "POST", "/jobs", "{}").unwrap();
        assert_eq!((status, body.as_str()), (202, "hello"));
        let req = server.join().unwrap();
        assert!(req.starts_with("POST /jobs HTTP/1.1\r\n"), "{req}");
        assert!(req.ends_with("\r\n\r\n{}"), "{req}");
    }
}
