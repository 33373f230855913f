//! Client connections: the v1 line protocol and the v2 framed protocol
//! behind one reply shape, plus the checks every reply must pass.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use procdb_wire::{Request, Response, WireClient};

use crate::workload::Op;

/// What the server answered: `ok` and the data lines joined by `\n`, or
/// not `ok` and the error text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// Did the command succeed?
    pub ok: bool,
    /// Data lines (no trailing newline), or the error message.
    pub body: String,
}

/// A v1 line-protocol connection.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl LineClient {
    /// Connect and consume the greeting.
    pub fn connect(addr: &str) -> Result<LineClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut client = LineClient {
            writer,
            reader: BufReader::new(stream),
            buf: String::new(),
        };
        let mut greeting = Reply::default();
        client.read_reply(&mut greeting)?;
        if !greeting.ok {
            return Err(format!("server refused: {}", greeting.body));
        }
        Ok(client)
    }

    fn read_reply(&mut self, reply: &mut Reply) -> Result<(), String> {
        reply.body.clear();
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            let line = self.buf.trim_end();
            if line == "ok" || line.starts_with("ok ") {
                reply.ok = true;
                return Ok(());
            }
            if let Some(msg) = line.strip_prefix("err") {
                reply.ok = false;
                reply.body.clear();
                reply.body.push_str(msg.trim_start());
                return Ok(());
            }
            if !reply.body.is_empty() {
                reply.body.push('\n');
            }
            reply.body.push_str(line);
        }
    }

    /// Send one command and read its reply into `reply`.
    pub fn command(&mut self, line: &str, reply: &mut Reply) -> Result<(), String> {
        // One write per command: a separate newline would cross two TCP
        // segments.
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_reply(reply)
    }

    /// Run a control command that must succeed; returns its data lines.
    pub fn expect_ok(&mut self, line: &str) -> Result<String, String> {
        let mut reply = Reply::default();
        self.command(line, &mut reply)?;
        if reply.ok {
            Ok(reply.body)
        } else {
            Err(format!("{line:?} failed: {}", reply.body))
        }
    }
}

/// Map a v2 response to the common reply shape. `OkText` carries the
/// trailing newline the v1 writer drops.
pub fn reply_of(resp: Response) -> Result<Reply, String> {
    match resp {
        Response::OkText { text } => Ok(Reply {
            ok: true,
            body: text.trim_end_matches('\n').to_string(),
        }),
        Response::Error { message, .. } => Ok(Reply {
            ok: false,
            body: message,
        }),
        other => Err(format!(
            "unexpected response opcode {:#04x}",
            other.opcode()
        )),
    }
}

/// A connection that runs one command at a time over either protocol.
pub enum Conn {
    /// v1 line protocol.
    V1(LineClient),
    /// v2 framed protocol, used closed-loop.
    V2(Box<WireClient>),
}

impl Conn {
    /// Connect over v1, or v2 announcing pipeline depth `depth`.
    pub fn connect(addr: &str, v2_depth: Option<usize>) -> Result<Conn, String> {
        match v2_depth {
            None => LineClient::connect(addr).map(Conn::V1),
            Some(depth) => WireClient::connect(addr, depth as u32)
                .map(|c| Conn::V2(Box::new(c)))
                .map_err(|e| format!("connect {addr}: {e}")),
        }
    }

    /// One round trip.
    pub fn command(&mut self, line: &str, reply: &mut Reply) -> Result<(), String> {
        match self {
            Conn::V1(c) => c.command(line, reply),
            Conn::V2(c) => {
                let resp = c
                    .roundtrip(&Request::Command {
                        line: line.to_string(),
                    })
                    .map_err(|e| format!("roundtrip: {e}"))?;
                *reply = reply_of(resp)?;
                Ok(())
            }
        }
    }

    /// Say goodbye; errors are ignored, the run is over.
    pub fn close(self) {
        match self {
            Conn::V1(mut c) => {
                let _ = c.command("quit", &mut Reply::default());
            }
            Conn::V2(c) => {
                let _ = c.close();
            }
        }
    }
}

/// Rows an access reply reports, when the body is well formed: a header
/// `N rows in X model-ms:` followed by `min(N, 20)` rendered rows and one
/// `... K more` line when `N > 20`.
pub fn access_rows(body: &str) -> Option<usize> {
    let mut lines = body.lines();
    let header = lines.next()?;
    let (count, rest) = header.split_once(" rows in ")?;
    let n: usize = count.parse().ok()?;
    rest.strip_suffix(" model-ms:")?.parse::<f64>().ok()?;
    (lines.count() == n.min(20) + usize::from(n > 20)).then_some(n)
}

/// Is `reply` a correct answer to `op`? An update must report exactly one
/// tuple re-keyed; an access must be well formed (its rows are checked
/// against the key models once the clients are quiet).
pub fn reply_is_correct(op: &Op, reply: &Reply) -> bool {
    reply.ok
        && match op {
            Op::Access(_) => access_rows(&reply.body).is_some(),
            Op::Update { victim, new_key } => reply
                .body
                .strip_prefix("1 tuple(s) re-keyed ")
                .and_then(|rest| rest.split_once(';'))
                .is_some_and(|(keys, _)| {
                    keys.split_once(" -> ")
                        .is_some_and(|(v, n)| v.parse() == Ok(*victim) && n.parse() == Ok(*new_key))
                }),
        }
}
