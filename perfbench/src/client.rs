//! The client side of the end-to-end runs: a keep-alive HTTP/1.1
//! connection, and the `sama index` / `sama serve` processes the
//! benchmark starts, times and stops.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One keep-alive connection. Requests are sent pre-rendered, so the
/// timed loop formats nothing.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Wait for answers by polling the socket, yielding in between,
    /// instead of sleeping in `read`.
    polling: bool,
}

/// A response: status and the byte range of its body in the
/// connection's buffer.
pub struct Reply {
    pub status: u16,
    body_start: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            polling: false,
        })
    }

    /// Wait for answers by polling instead of sleeping in `read`.
    pub fn set_polling(&mut self, polling: bool) -> io::Result<()> {
        self.polling = polling;
        self.stream.set_nonblocking(polling)
    }

    fn read(&mut self, chunk: &mut [u8]) -> io::Result<usize> {
        if !self.polling {
            return self.stream.read(chunk);
        }
        let started = Instant::now();
        loop {
            match self.stream.read(chunk) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if started.elapsed() > READ_TIMEOUT {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "no answer"));
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Write one request and read the whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + length {
            let n = self.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            body_start: head_end,
        })
    }

    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..]
    }
}

const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Run `sama index <nt> -o <out>` and return its wall time.
pub fn build_index(sama: &Path, nt: &Path, out: &Path) -> Result<Duration, String> {
    let started = Instant::now();
    let output = Command::new(sama)
        .arg("index")
        .arg(nt)
        .arg("-o")
        .arg(out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", sama.display()))?;
    let took = started.elapsed();
    if !output.status.success() {
        return Err(format!(
            "sama index failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(took)
}

/// A running `sama serve` process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains stdout after the startup line, so the drain line can be
    /// checked and the pipe never fills.
    stdout: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawn `sama serve <index> --addr 127.0.0.1:0` and wait for the
    /// first `200` from `/readyz`. Returns the server and that wait,
    /// which covers index open and the readiness self-probe.
    pub fn start(sama: &Path, index: &Path) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(sama)
            .arg("serve")
            .arg(index)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", sama.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .rsplit("http://")
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let reader = std::thread::spawn(move || stdout.lines().map_while(Result::ok).collect());
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let Some(addr) = addr else {
            server.kill();
            return Err(format!("sama serve printed no address: {line:?}"));
        };
        server.addr = addr;
        let ready = get("/readyz");
        while started.elapsed() < Duration::from_secs(60) {
            if let Ok(mut conn) = Conn::open(addr) {
                if matches!(conn.send(&ready), Ok(r) if r.status == 200) {
                    return Ok((server, started.elapsed()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.kill();
        Err("sama serve never became ready".into())
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// SIGTERM, then require exit 0 and the `drained` line with no
    /// connection aborted at the grace limit.
    pub fn drain(mut self) -> Result<(), String> {
        sigterm(self.child.id())?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    self.kill();
                    return Err("sama serve did not exit after SIGTERM".into());
                }
                Err(e) => return Err(format!("cannot wait for sama serve: {e}")),
            }
        };
        let lines = self.join_stdout();
        if !status.success() {
            return Err(format!("sama serve exited with {status}"));
        }
        match lines.iter().find(|l| l.contains("drained")) {
            Some(l) if !l.contains("aborted") => Ok(()),
            Some(l) => Err(format!("unclean drain: {l}")),
            None => Err("sama serve printed no drained line".into()),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stdout();
    }

    fn join_stdout(&mut self) -> Vec<String> {
        self.stdout
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    /// A server not drained (an error path) is killed, so no run
    /// leaves a process behind.
    fn drop(&mut self) {
        if self.stdout.is_some() {
            self.kill();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

fn sigterm(pid: u32) -> Result<(), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes two integers and reads no memory of this
    // process. `pid` is a child that has not been waited for, so it
    // cannot name a recycled process.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot signal sama serve: {}",
            io::Error::last_os_error()
        ))
    }
}
