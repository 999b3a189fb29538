//! The htdserve wire protocol as a client speaks it: checksummed text
//! frames, read line by line up to the `checksum` trailer. Also checks the
//! same trailer on the store artifacts `htd` writes to disk.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn frame(verb: &str, body: &str) -> Vec<u8> {
    let mut text = format!("htdserve 1 {verb}\n{body}");
    let sum = fnv1a64(text.as_bytes());
    text.push_str(&format!("checksum fnv1a64 {sum:016x}\n"));
    text.into_bytes()
}

/// A `score` request; `id` becomes the optional `request "<id>"` line
/// that tags the server's spans for this request.
pub fn score_request(golden: &str, suspect: &str, id: Option<&str>) -> Vec<u8> {
    let mut body = format!("golden {}\nsuspect {suspect}\n", quote(golden));
    if let Some(id) = id {
        body.push_str(&format!("request {}\n", quote(id)));
    }
    frame("score", &body)
}

/// Splits a store artifact or wire frame at its `checksum fnv1a64` trailer
/// and returns the covered text when the trailer matches it.
pub fn verified(text: &str) -> Option<&str> {
    let body = text.strip_suffix('\n')?;
    let cut = body.rfind('\n')? + 1;
    let declared = body[cut..].strip_prefix("checksum fnv1a64 ")?;
    let covered = &text[..cut];
    (declared == format!("{:016x}", fnv1a64(covered.as_bytes()))).then_some(covered)
}

/// The report a served `ok` response embeds, with the `|` prefix stripped,
/// when the frame is well formed and answers `suspect`.
pub fn served_report(frame: &str, suspect: &str) -> Option<String> {
    let covered = verified(frame)?;
    let mut lines = covered.lines();
    if lines.next()? != "htdserve 1 ok" {
        return None;
    }
    lines.next()?.strip_prefix("plan fnv1a64:")?;
    if lines.next()? != format!("suspect {suspect}") {
        return None;
    }
    let mut line = lines.next()?;
    if line.starts_with("request ") {
        line = lines.next()?;
    }
    let n: usize = line.strip_prefix("report ")?.parse().ok()?;
    let mut report = String::new();
    for _ in 0..n {
        report.push_str(lines.next()?.strip_prefix('|')?);
        report.push('\n');
    }
    lines.next().is_none().then_some(report)
}

/// One blocking connection with one request in flight.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Sends one request frame and returns the response frame's bytes.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<&[u8]> {
        self.writer.write_all(request)?;
        self.buf.clear();
        loop {
            let start = self.buf.len();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            if self.buf[start..].starts_with(b"checksum ") {
                return Ok(&self.buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_verify_and_embedded_reports_unwrap() {
        let report = "htdstore 1 report\ndies 8\n";
        let body = "plan fnv1a64:00000000000000aa\nsuspect ht1\nrequest \"t-1\"\nreport 2\n|htdstore 1 report\n|dies 8\n";
        let f = String::from_utf8(frame("ok", body)).unwrap();
        assert_eq!(served_report(&f, "ht1").as_deref(), Some(report));
        assert_eq!(served_report(&f, "ht2"), None);
        assert_eq!(served_report(&f.replace("dies 8", "dies 9"), "ht1"), None);
    }
}
