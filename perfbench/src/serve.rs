//! A client of the real `sierra-cli serve` process: one request in
//! flight, each answered by a stream of events ending in `done` or
//! `error`.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// What serve answered to one request.
#[derive(Debug)]
pub enum Reply {
    /// The `report` event's payload, as text.
    Report(String),
    /// The `error` event's message, or a protocol violation.
    Error(String),
}

/// A running `sierra-cli serve --jobs 1 --shared-store` (one worker, the
/// in-memory store doubling as the shared framework-summary layer).
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server.
    pub fn spawn(cli: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(cli)
            .args(["serve", "--jobs", "1", "--shared-store"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Server {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends request line `line` (carrying `id`) and reads events until
    /// its `done` or `error`. Event kinds are read from the fixed prefix
    /// `{"id":<id>,"event":"<kind>"` that serve renders first, so a
    /// large report is never parsed while the clock runs.
    pub fn analyze(&mut self, id: u64, line: &str) -> std::io::Result<Reply> {
        let stdin = self.stdin.as_mut().expect("server not shut down");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let prefix = format!("{{\"id\":{id},\"event\":\"");
        let mut report = None;
        let mut event = String::new();
        loop {
            event.clear();
            if self.stdout.read_line(&mut event)? == 0 {
                return Ok(Reply::Error("server closed its output".to_owned()));
            }
            let Some(rest) = event.strip_prefix(&prefix) else {
                return Ok(Reply::Error(format!(
                    "unexpected event {:?}",
                    event.chars().take(80).collect::<String>()
                )));
            };
            if rest.starts_with("stage\"") {
                continue;
            } else if let Some(payload) = rest.strip_prefix("report\",\"report\":") {
                let payload = payload.trim_end();
                report = Some(payload.strip_suffix('}').unwrap_or(payload).to_owned());
            } else if rest.starts_with("done\"") {
                return Ok(match report {
                    Some(report) => Reply::Report(report),
                    None => Reply::Error("done without a report".to_owned()),
                });
            } else {
                return Ok(Reply::Error(event.trim_end().to_owned()));
            }
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"{\"op\":\"shutdown\"}\n")?;
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("serve exited with {status}")))
        }
    }
}

impl Drop for Server {
    /// A server not shut down cleanly (an error path) is killed and
    /// reaped, so no process outlives the benchmark.
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
