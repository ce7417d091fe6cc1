//! A `MAP/2` client for `segram serve`, timed from the caller's side.
//!
//! One request per TCP connection, as the protocol requires:
//!
//! ```text
//! client:  MAP/2 <payload-bytes> fmt=sam prio=<class>\n + payload
//! server:  OK\n, then CHUNK <len>\n + <len> bytes ..., then
//!          END reads=<n> mapped=<m> prio=<class> p50us=<a> p95us=<b> p99us=<c>\n
//!      or  BUSY <queued-batches> retry-ms=<n>\n
//!      or  ERR <message>\n
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The fields of an `END` line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndLine {
    pub reads: u64,
    pub mapped: u64,
    pub prio: String,
    /// Queueing-delay percentiles of this request, as the daemon saw them.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

/// Why a request produced no document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// Admission control refused the request.
    Busy { queued: u64, retry_ms: u64 },
    /// The daemon rejected the request or its input.
    Err(String),
    /// The reply did not follow the protocol (or the connection failed).
    Protocol(String),
}

/// Instants of the reply's milestones, for the serve-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplyTimes {
    /// The status line (`OK`/`BUSY`/`ERR`) has been read.
    pub status: Option<Instant>,
    /// The first `CHUNK` body has been read.
    pub first_chunk: Option<Instant>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

fn parse_end(rest: &str) -> Option<EndLine> {
    let number = |key| field(rest, key)?.parse::<u64>().ok();
    Some(EndLine {
        reads: number("reads")?,
        mapped: number("mapped")?,
        prio: field(rest, "prio")?.to_owned(),
        p50_us: number("p50us")?,
        p95_us: number("p95us")?,
        p99_us: number("p99us")?,
    })
}

fn parse_busy(rest: &str) -> Option<Refusal> {
    Some(Refusal::Busy {
        queued: rest.split_whitespace().next()?.parse().ok()?,
        retry_ms: field(rest, "retry-ms")?.parse().ok()?,
    })
}

fn read_line(reader: &mut impl BufRead) -> Result<String, Refusal> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(Refusal::Protocol("connection closed mid-reply".into())),
        Ok(_) => Ok(line.trim_end().to_owned()),
        Err(e) => Err(Refusal::Protocol(format!("read failed: {e}"))),
    }
}

/// Reads one complete reply: the document and the `END` line, or why
/// there is none.
pub fn read_reply(
    reader: &mut impl BufRead,
    times: &mut ReplyTimes,
) -> Result<(Vec<u8>, EndLine), Refusal> {
    let status = read_line(reader)?;
    times.status = Some(Instant::now());
    if let Some(rest) = status.strip_prefix("BUSY ") {
        return Err(parse_busy(rest)
            .unwrap_or_else(|| Refusal::Protocol(format!("bad BUSY line {status:?}"))));
    }
    if let Some(message) = status.strip_prefix("ERR ") {
        return Err(Refusal::Err(message.to_owned()));
    }
    if status != "OK" {
        return Err(Refusal::Protocol(format!("unexpected status {status:?}")));
    }
    let mut document = Vec::new();
    loop {
        let line = read_line(reader)?;
        if let Some(len) = line.strip_prefix("CHUNK ") {
            let len: usize = len
                .parse()
                .map_err(|_| Refusal::Protocol(format!("bad chunk length {line:?}")))?;
            // The daemon caps chunks at 64 KiB; refuse to allocate for a
            // length no well-formed reply carries.
            if len > 1 << 24 {
                return Err(Refusal::Protocol(format!("oversized chunk {len}")));
            }
            let start = document.len();
            document.resize(start + len, 0);
            reader
                .read_exact(&mut document[start..])
                .map_err(|e| Refusal::Protocol(format!("short chunk: {e}")))?;
            times.first_chunk.get_or_insert_with(Instant::now);
        } else if let Some(rest) = line.strip_prefix("END ") {
            let end = parse_end(rest)
                .ok_or_else(|| Refusal::Protocol(format!("bad END line {line:?}")))?;
            return Ok((document, end));
        } else {
            return Err(Refusal::Protocol(format!("unexpected line {line:?}")));
        }
    }
}

/// One finished exchange, timed from just before `connect()`.
#[derive(Debug)]
pub struct Exchange {
    pub outcome: Result<(Vec<u8>, EndLine), Refusal>,
    /// Just before `connect()` until the `END` line (or the refusal).
    pub latency: Duration,
    pub connect_to_status: Option<Duration>,
    pub connect_to_first_chunk: Option<Duration>,
}

/// Sends `payload` as one SAM `MAP/2` request of class `prio` and reads
/// the whole reply.
pub fn map_request(addr: &str, payload: &[u8], prio: &str, timeout: Duration) -> Exchange {
    let started = Instant::now();
    let mut times = ReplyTimes::default();
    let outcome = (|| {
        let io = |e: std::io::Error| Refusal::Protocol(format!("{addr}: {e}"));
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_read_timeout(Some(timeout)).map_err(io)?;
        stream.set_write_timeout(Some(timeout)).map_err(io)?;
        let header = format!("MAP/2 {} fmt=sam prio={prio}\n", payload.len());
        stream.write_all(header.as_bytes()).map_err(io)?;
        stream.write_all(payload).map_err(io)?;
        stream.flush().map_err(io)?;
        read_reply(&mut BufReader::new(stream), &mut times)
    })();
    Exchange {
        outcome,
        latency: started.elapsed(),
        connect_to_status: times.status.map(|t| t - started),
        connect_to_first_chunk: times.first_chunk.map(|t| t - started),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(transcript: &[u8]) -> Result<(Vec<u8>, EndLine), Refusal> {
        read_reply(&mut BufReader::new(transcript), &mut ReplyTimes::default())
    }

    #[test]
    fn ok_chunks_and_end_line_parse() {
        let transcript =
            b"OK\nCHUNK 5\n@HD\tXCHUNK 3\nab\nEND reads=4 mapped=3 prio=interactive p50us=120 p95us=900 p99us=1500\n";
        let (document, end) = reply(transcript).unwrap();
        assert_eq!(document, b"@HD\tXab\n");
        assert_eq!(
            end,
            EndLine {
                reads: 4,
                mapped: 3,
                prio: "interactive".into(),
                p50_us: 120,
                p95_us: 900,
                p99_us: 1500,
            }
        );
    }

    #[test]
    fn empty_document_is_a_valid_reply() {
        let (document, end) =
            reply(b"OK\nEND reads=0 mapped=0 prio=bulk p50us=0 p95us=0 p99us=0\n").unwrap();
        assert!(document.is_empty());
        assert_eq!(end.prio, "bulk");
    }

    #[test]
    fn busy_and_err_are_refusals() {
        assert_eq!(
            reply(b"BUSY 16 retry-ms=250\n").unwrap_err(),
            Refusal::Busy {
                queued: 16,
                retry_ms: 250
            }
        );
        assert_eq!(
            reply(b"ERR payload is not FASTQ\n").unwrap_err(),
            Refusal::Err("payload is not FASTQ".into())
        );
    }

    #[test]
    fn malformed_replies_are_protocol_errors() {
        for transcript in [
            &b""[..],
            b"HELLO\n",
            b"BUSY soon\n",
            b"OK\nCHUNK x\n",
            b"OK\nCHUNK 10\nshort",
            b"OK\nCHUNK 999999999\n",
            b"OK\nEND reads=1\n",
            b"OK\nCHUNK 1\na",
            b"OK\nCHUNK 2\nabERR worker panicked\n",
        ] {
            assert!(
                matches!(reply(transcript), Err(Refusal::Protocol(_))),
                "{:?}",
                String::from_utf8_lossy(transcript)
            );
        }
    }

    #[test]
    fn first_chunk_and_status_instants_are_recorded() {
        let mut times = ReplyTimes::default();
        let transcript = b"OK\nCHUNK 1\naEND reads=1 mapped=1 prio=bulk p50us=1 p95us=1 p99us=1\n";
        read_reply(&mut BufReader::new(&transcript[..]), &mut times).unwrap();
        assert!(times.status.is_some() && times.first_chunk.is_some());
        assert!(times.status <= times.first_chunk);
    }
}
