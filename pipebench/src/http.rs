//! Minimal HTTP/1.1 client framing for pipelined keep-alive traffic.
//!
//! Responses are cut from a residue buffer that carries bytes read past
//! the end of one response over to the next: dropping them would
//! desynchronise every later response on the connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One framed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A `POST /verify` request for `file` (percent-encoded in the query).
pub fn verify_request(file: &str, source: &str) -> Vec<u8> {
    let mut name = String::with_capacity(file.len());
    for b in file.bytes() {
        if b.is_ascii_alphanumeric() || b"._/-".contains(&b) {
            name.push(char::from(b));
        } else {
            name.push_str(&format!("%{b:02X}"));
        }
    }
    format!(
        "POST /verify?file={name} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{source}",
        source.len()
    )
    .into_bytes()
}

/// A `GET` request that keeps the connection open.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Cuts one complete response off the front of `residue`, or returns
/// `None` (leaving `residue` untouched) when it is still incomplete.
pub fn take_response(residue: &mut Vec<u8>) -> Result<Option<Response>, String> {
    let Some(head_end) = residue.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&residue[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + length;
    if residue.len() < total {
        return Ok(None);
    }
    let body = residue[head_end + 4..total].to_vec();
    residue.drain(..total);
    Ok(Some(Response { status, body }))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Waits up to `wait` for `stream` to become readable. Socket read
/// timeouts are rounded to scheduler ticks, which would make an
/// open-loop generator send late; `ppoll` sleeps to the nanosecond.
fn wait_readable(stream: &TcpStream, wait: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out locals for
    // the duration of the call, `nfds` is 1 to match the single entry,
    // and a null signal mask is allowed.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    ready > 0
}

/// Waits up to `wait` for more bytes and cuts one response if that
/// completes it. `Ok(None)` means "not yet"; the residue keeps what
/// arrived.
pub fn read_response(
    stream: &mut TcpStream,
    residue: &mut Vec<u8>,
    wait: Duration,
) -> Result<Option<Response>, String> {
    if let Some(r) = take_response(residue)? {
        return Ok(Some(r));
    }
    if !wait_readable(stream, wait) {
        return Ok(None);
    }
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk) {
        Ok(0) => Err("connection closed".to_owned()),
        Ok(n) => {
            residue.extend_from_slice(&chunk[..n]);
            take_response(residue)
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// One blocking request/response exchange on a fresh connection.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    exchange_on(&mut stream, &mut Vec::new(), request)
}

/// One request/response exchange on an open keep-alive connection.
pub fn exchange_on(
    stream: &mut TcpStream,
    residue: &mut Vec<u8>,
    request: &[u8],
) -> Result<Response, String> {
    stream.write_all(request).map_err(|e| e.to_string())?;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if let Some(r) = read_response(stream, residue, Duration::from_millis(100))? {
            return Ok(r);
        }
    }
    Err("no response within 30 s".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn pipelined_responses_keep_their_residue() {
        let mut wire = frame(200, "{\"a\":1}");
        wire.extend(frame(429, "busy"));
        wire.extend(frame(200, "{\"c\":3}"));
        // Deliver the stream in awkward pieces: every cut point must
        // yield the same three responses in order.
        for cut in 1..wire.len() {
            let mut residue = Vec::new();
            let mut got = Vec::new();
            for piece in [&wire[..cut], &wire[cut..]] {
                residue.extend_from_slice(piece);
                while let Some(r) = take_response(&mut residue).unwrap() {
                    got.push((r.status, String::from_utf8(r.body).unwrap()));
                }
            }
            assert_eq!(
                got,
                vec![
                    (200, "{\"a\":1}".to_owned()),
                    (429, "busy".to_owned()),
                    (200, "{\"c\":3}".to_owned()),
                ],
                "cut at {cut}"
            );
            assert!(residue.is_empty());
        }
    }

    #[test]
    fn incomplete_frames_leave_residue_untouched() {
        let wire = frame(200, "0123456789");
        let mut residue = wire[..wire.len() - 3].to_vec();
        let before = residue.clone();
        assert_eq!(take_response(&mut residue).unwrap(), None);
        assert_eq!(residue, before);
        assert!(take_response(&mut b"HTTP/1.1 xx\r\n\r\n".to_vec()).is_err());
    }

    #[test]
    fn requests_are_framed_by_content_length() {
        let req = String::from_utf8(verify_request("PHP Surveyor/a.php", "<?php echo 1;")).unwrap();
        assert!(req.starts_with("POST /verify?file=PHP%20Surveyor/a.php HTTP/1.1\r\n"));
        assert!(req.ends_with("Content-Length: 13\r\n\r\n<?php echo 1;"));
    }
}
