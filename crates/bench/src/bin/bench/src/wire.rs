//! The product side of an end-to-end run, touched only through its CLI
//! and wire protocol: `kbtim` child processes, `/proc` readings of the
//! server, and the single-threaded load generator that speaks
//! line-JSON over its connections.

use crate::check::response_id;
use crate::workload::{PacedSchedule, QueryGen, QueryReq, WriteGen, WriteReq, FLUSH_EVERY};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Where `cargo build` put `kbtim`: `$CARGO_TARGET_DIR` if set (the
/// driver sets it), else `target/`, relative to the checkout root the
/// benchmark is run from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the product from source in this checkout and return the path
/// of its binary. Not part of `setup_s`: compilation is paid once per
/// checkout, not once per server start.
pub fn build_kbtim() -> Result<PathBuf, String> {
    if !Path::new("src/bin/kbtim.rs").exists() {
        return Err("run from the root of a kbtim checkout (src/bin/kbtim.rs not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "kbtim"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin kbtim failed ({status})"));
    }
    let bin = target_dir().join("release").join("kbtim");
    if !bin.exists() {
        return Err(format!("{} missing after a successful build", bin.display()));
    }
    Ok(bin)
}

/// Run one `kbtim` subcommand to completion; its stdout is returned.
pub fn run_kbtim(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "kbtim {} failed ({}): {}",
            args.first().copied().unwrap_or(""),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// utime + stime of a process in seconds, from `/proc/<pid>/stat`.
/// `pid` 0 reads this process.
pub fn cpu_seconds(pid: u32) -> f64 {
    let path = if pid == 0 { "/proc/self/stat".to_string() } else { format!("/proc/{pid}/stat") };
    let Ok(stat) = std::fs::read_to_string(path) else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks (USER_HZ is
    // 100 on every Linux ABI).
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn rss_peak_mib(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `kbtim serve --listen` child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the server's late stderr lines never hit a closed
    /// pipe; drained when the server is stopped.
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Spawn `kbtim serve <args> --listen 127.0.0.1:0` and wait for
    /// its `listening on` banner. Stdin is a pipe the benchmark holds:
    /// closing it is the graceful-drain signal.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut seen = String::new();
        loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("kbtim serve exited before listening: {}", seen.trim()));
                }
            }
            if let Some(addr) = line.trim().strip_prefix("kbtim serve: listening on ") {
                let addr = addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(Server { child, addr, stderr });
            }
            seen.push_str(&line);
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: close stdin (the drain signal), wait for exit.
    /// Falls back to SIGKILL after `grace`. Returns the server's last
    /// stderr lines (its drain summary).
    pub fn drain(mut self, grace: Duration) -> Result<String, String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut tail = String::new();
                    let _ = self.stderr.read_to_string(&mut tail);
                    return if status.success() {
                        Ok(tail)
                    } else {
                        Err(format!("kbtim serve exited with {status}: {}", tail.trim()))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("kbtim serve did not drain within its grace; killed".into());
                }
            }
        }
    }

    /// SIGKILL and reap — the crash the recovery check is about.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    /// No server outlives the benchmark, whatever path it leaves by.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    /// `ppoll(2)`: like `poll`, with a nanosecond timeout — the
    /// generator must wake when a request is *due*, and `poll`'s
    /// millisecond timeout is coarser than hot-path latencies.
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// `sched_setscheduler(2)`; `pid` 0 is the calling thread.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_OTHER: i32 = 0;
const SCHED_FIFO: i32 = 1;
/// Children fall back to `SCHED_OTHER`: no server is ever real-time.
const SCHED_RESET_ON_FORK: i32 = 0x4000_0000;

/// Run the generator thread at the lowest real-time priority while a
/// phase is measured, or return it to the normal class. On a two-core
/// host the server's two workers and its event loop keep both cores
/// busy, and the fair scheduler lets a *due* request wait out a slice
/// (several ms) before the generator runs; that wait would be booked as
/// server latency. The generator sleeps in `ppoll` almost all the time,
/// so it takes nothing from the server. Needs CAP_SYS_NICE; without it
/// the call fails, the run goes on, and `loadgen.lag_p99_ms` says how
/// late the generator ran.
fn set_realtime(on: bool) {
    let (policy, priority) =
        if on { (SCHED_FIFO | SCHED_RESET_ON_FORK, 1) } else { (SCHED_OTHER, 0) };
    let param = SchedParam { sched_priority: priority };
    // SAFETY: `param` is a live, initialised `struct sched_param` for
    // the duration of the call and the kernel only reads it. Failure is
    // a return value, deliberately ignored (see above).
    unsafe { sched_setscheduler(0, policy, &param) };
}

/// Block until a descriptor is ready or `timeout_ns` passes.
fn wait_ready(fds: &mut [PollFd], timeout_ns: u64) {
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as std::ffi::c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as std::ffi::c_long,
    };
    // SAFETY: `fds` points at `fds.len()` initialised `PollFd`s that
    // live across the call; `timeout` lives across the call; a null
    // signal mask is allowed and leaves the mask unchanged. The kernel
    // writes only the `revents` fields. An EINTR return is harmless:
    // the caller re-evaluates time and readiness on every wake.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, &timeout, std::ptr::null()) };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Sat,
    Paced,
    Recovery,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Sent {
    Query(QueryReq),
    Write(WriteReq),
}

/// One request the generator sent, and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    pub sent: Sent,
    pub phase: Phase,
    /// When the request was due (open loop) or issued (closed loop);
    /// latency is measured from here. Nanoseconds since the generator
    /// was created, like every time in a record.
    pub due_ns: u64,
    /// When it was actually written to the socket.
    pub sent_ns: u64,
    pub recv_ns: Option<u64>,
    pub response: Option<String>,
}

impl Record {
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv_ns.map(|r| r.saturating_sub(self.due_ns) as f64 / 1e6)
    }
}

struct Lane {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: usize,
}

impl Lane {
    fn open(addr: SocketAddr) -> Result<Lane, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Lane { stream, rbuf: Vec::new(), wbuf: Vec::new(), inflight: 0 })
    }
}

/// How the generator drives its lanes during one phase.
pub struct Plan {
    pub phase: Phase,
    pub duration: Duration,
    /// `(lane, depth)`: keep `depth` queries outstanding on `lane`.
    pub closed: Vec<(usize, usize)>,
    /// `(rate, lanes)`: send queries on a fixed schedule, round-robin.
    pub paced: Option<(f64, Vec<usize>)>,
    /// Closed-loop writer, one mutation per round trip, on this lane.
    pub writer: Option<usize>,
    /// Stop the closed loops after this many requests (the warm-up is a
    /// fixed amount of work, not a fixed time); the phase then ends as
    /// soon as they are answered.
    pub limit: Option<usize>,
    /// How long to wait for stragglers after the phase ends.
    pub drain: Duration,
    /// Read this process's CPU time at every window boundary (the
    /// server, for per-window CPU cost).
    pub sample_pid: Option<u32>,
}

/// Most requests the open-loop schedule keeps unanswered on one
/// connection. The epoll front end sheds what a connection pipelines
/// past 128 in flight (`overloaded`, docs/PROTOCOL.md §Pipelining), so
/// at 1 000 requests/s a 130 ms pause of the host turned into failed
/// operations on one run and none on the next. A client that honours the
/// depth waits instead: a request due while its connection is full is
/// sent when a response frees a slot and is still timed from when it
/// was *due*, so the pause is charged to latency and nothing is shed.
pub const MAX_PIPELINED: usize = 96;

/// Length of the windows a phase is cut into. Metrics are medians over
/// windows, so that one stall of the host — a shared VM pauses for tens
/// of milliseconds now and then — spoils one window, not the run.
pub const WINDOW: Duration = Duration::from_secs(1);

/// What one phase measured about the generator itself.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// When the phase started, on the generator's clock.
    pub start_ns: u64,
    pub wall_s: f64,
    /// `(time, CPU seconds of Plan::sample_pid)` at the start of the
    /// phase, at every window boundary, and at its end.
    pub cpu_samples: Vec<(u64, f64)>,
    /// CPU seconds this process spent during the phase.
    pub loadgen_cpu_s: f64,
}

/// The load generator: one thread, one `ppoll` loop, every connection.
/// Requests are written when due, responses are time-stamped as they
/// arrive and kept verbatim; all checking happens after the phase.
pub struct Generator {
    epoch: Instant,
    lanes: Vec<Lane>,
    pub records: Vec<Record>,
    queries: QueryGen,
    writes: Option<WriteGen>,
    /// Mutation acks since the last flush was sent.
    acks_since_flush: u64,
    /// Protocol violations seen while reading (unmatched ids, broken
    /// connections); they fail the run.
    pub violations: Vec<String>,
}

impl Generator {
    pub fn connect(
        addr: SocketAddr,
        lanes: usize,
        queries: QueryGen,
        writes: Option<WriteGen>,
    ) -> Result<Generator, String> {
        let lanes = (0..lanes).map(|_| Lane::open(addr)).collect::<Result<Vec<_>, String>>()?;
        Ok(Generator {
            epoch: Instant::now(),
            lanes,
            records: Vec::new(),
            queries,
            writes,
            acks_since_flush: 0,
            violations: Vec::new(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Send one request now (used by the recovery probe); returns its id.
    pub fn send_now(&mut self, lane: usize, sent: Sent, phase: Phase) -> u64 {
        let now = self.now_ns();
        self.send(lane, sent, phase, now)
    }

    fn send(&mut self, lane: usize, sent: Sent, phase: Phase, due_ns: u64) -> u64 {
        let id = self.records.len() as u64;
        let line = match &sent {
            Sent::Query(q) => q.line(id),
            Sent::Write(w) => w.line(id),
        };
        let l = &mut self.lanes[lane];
        l.wbuf.extend_from_slice(line.as_bytes());
        l.wbuf.push(b'\n');
        l.inflight += 1;
        Self::flush_lane(l, &mut self.violations);
        let sent_ns = self.now_ns();
        self.records.push(Record { sent, phase, due_ns, sent_ns, recv_ns: None, response: None });
        id
    }

    fn flush_lane(lane: &mut Lane, violations: &mut Vec<String>) {
        while !lane.wbuf.is_empty() {
            match lane.stream.write(&lane.wbuf) {
                Ok(0) => break,
                Ok(n) => {
                    lane.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    violations.push(format!("write failed: {e}"));
                    lane.wbuf.clear();
                }
            }
        }
    }

    /// Read whatever has arrived on `lane` and file complete lines.
    fn read_lane(&mut self, lane: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.lanes[lane].stream.read(&mut chunk) {
                Ok(0) => {
                    if self.lanes[lane].inflight > 0 {
                        self.violations.push(format!("lane {lane}: server closed the connection"));
                        self.lanes[lane].inflight = 0;
                    }
                    return;
                }
                Ok(n) => self.lanes[lane].rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.violations.push(format!("lane {lane}: read failed: {e}"));
                    self.lanes[lane].inflight = 0;
                    return;
                }
            }
        }
        let recv_ns = self.now_ns();
        let mut rbuf = std::mem::take(&mut self.lanes[lane].rbuf);
        let mut start = 0;
        while let Some(nl) = rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&rbuf[start..start + nl]).into_owned();
            start += nl + 1;
            self.file_response(lane, line, recv_ns);
        }
        rbuf.drain(..start);
        self.lanes[lane].rbuf = rbuf;
    }

    fn file_response(&mut self, lane: usize, line: String, recv_ns: u64) {
        let slot = response_id(&line).and_then(|id| self.records.get_mut(id as usize));
        match slot {
            Some(rec) if rec.recv_ns.is_none() => {
                if matches!(rec.sent, Sent::Write(w) if w != WriteReq::Flush) {
                    self.acks_since_flush += 1;
                }
                rec.recv_ns = Some(recv_ns);
                rec.response = Some(line);
                self.lanes[lane].inflight = self.lanes[lane].inflight.saturating_sub(1);
            }
            _ => self.violations.push(format!("lane {lane}: unmatched response {line}")),
        }
    }

    fn next_write(&mut self) -> WriteReq {
        if self.acks_since_flush >= FLUSH_EVERY {
            self.acks_since_flush = 0;
            return WriteReq::Flush;
        }
        self.writes.as_mut().expect("a writer lane needs a write stream").next_write()
    }

    /// Sleep until a lane is ready or `timeout_ns` passes, then write
    /// what is buffered and read what has arrived.
    fn wait_and_transfer(&mut self, timeout_ns: u64) {
        let mut fds: Vec<PollFd> = self
            .lanes
            .iter()
            .map(|l| PollFd {
                fd: l.stream.as_raw_fd(),
                events: if l.wbuf.is_empty() { POLLIN } else { POLLIN | POLLOUT },
                revents: 0,
            })
            .collect();
        wait_ready(&mut fds, timeout_ns);
        for (lane, fd) in fds.iter().enumerate() {
            if fd.revents & POLLOUT != 0 {
                Self::flush_lane(&mut self.lanes[lane], &mut self.violations);
            }
            if fd.revents & !POLLOUT != 0 {
                self.read_lane(lane);
            }
        }
    }

    /// Drive one phase to completion.
    pub fn run(&mut self, plan: &Plan) -> PhaseStats {
        let cpu_before = cpu_seconds(0);
        set_realtime(true);
        let t0 = self.now_ns();
        let end = t0 + plan.duration.as_nanos() as u64;
        let give_up = end + plan.drain.as_nanos() as u64;
        let mut sched = plan
            .paced
            .as_ref()
            .map(|(rate, _)| PacedSchedule::new(*rate, plan.duration.as_nanos() as u64));
        let mut budget = plan.limit.unwrap_or(usize::MAX);
        let window = WINDOW.as_nanos() as u64;
        // CPU samples at t0, at every window boundary, and at the end.
        let mut cpu_samples = Vec::new();
        if let Some(pid) = plan.sample_pid {
            cpu_samples.push((t0, cpu_seconds(pid)));
        }
        let mut sampling = plan.sample_pid.is_some() && end > t0;
        loop {
            let now = self.now_ns();
            let next_sample = (t0 + cpu_samples.len() as u64 * window).min(end);
            if let Some(pid) = plan.sample_pid.filter(|_| sampling && now >= next_sample) {
                cpu_samples.push((now, cpu_seconds(pid)));
                sampling = next_sample < end;
                continue;
            }
            let end = if budget == 0 { now } else { end };
            if now < end {
                for &(lane, depth) in &plan.closed {
                    while self.lanes[lane].inflight < depth && budget > 0 {
                        let q = self.queries.next_query();
                        self.send(lane, Sent::Query(q), plan.phase, now);
                        budget -= 1;
                    }
                }
                if let Some(lane) = plan.writer {
                    if self.lanes[lane].inflight == 0 {
                        let w = self.next_write();
                        self.send(lane, Sent::Write(w), plan.phase, now);
                    }
                }
            }
            // The next paced request's connection is at MAX_PIPELINED:
            // nothing more can go out until a response comes in.
            let mut held = false;
            if let (Some(sched), Some((_, lanes))) = (sched.as_mut(), plan.paced.as_ref()) {
                while sched.next_due_ns().is_some() {
                    let lane = lanes[sched.next_index() as usize % lanes.len()];
                    held = self.lanes[lane].inflight >= MAX_PIPELINED;
                    if held {
                        break;
                    }
                    let Some((_, due)) = sched.pop_due(now - t0) else { break };
                    let q = self.queries.next_query();
                    self.send(lane, Sent::Query(q), plan.phase, t0 + due);
                }
            }
            let next_due = sched.as_ref().and_then(PacedSchedule::next_due_ns).map(|d| t0 + d);
            let outstanding: usize = self.lanes.iter().map(|l| l.inflight).sum();
            if now >= give_up || (now >= end && next_due.is_none() && outstanding == 0) {
                break;
            }
            // A held request wakes the loop by the response that frees
            // its slot, not by its due time (which may be past).
            let due_wake = next_due.filter(|_| !held).unwrap_or(u64::MAX);
            let mut wake = due_wake.min(if now < end { end } else { give_up });
            if sampling {
                wake = wake.min(next_sample);
            }
            self.wait_and_transfer(wake.saturating_sub(now));
        }
        if let Some(unsent) = sched.as_ref().map(PacedSchedule::unsent).filter(|&n| n > 0) {
            self.violations.push(format!(
                "{unsent} paced request(s) were never sent: the server was still more than \
                 {MAX_PIPELINED} responses behind {:?} after the phase",
                plan.drain
            ));
        }
        // Whatever is still outstanding has missed every limit; stop
        // counting it against the lanes so the next phase starts clean.
        for lane in &mut self.lanes {
            lane.inflight = 0;
        }
        set_realtime(false);
        PhaseStats {
            start_ns: t0,
            cpu_samples,
            wall_s: (self.now_ns() - t0) as f64 / 1e9,
            loadgen_cpu_s: cpu_seconds(0) - cpu_before,
        }
    }

    /// Wait up to `timeout` for the response to request `id`.
    pub fn await_response(&mut self, id: u64, timeout: Duration) -> Option<String> {
        let give_up = self.now_ns() + timeout.as_nanos() as u64;
        while self.records[id as usize].recv_ns.is_none() {
            let now = self.now_ns();
            if now >= give_up {
                return None;
            }
            self.wait_and_transfer(give_up - now);
        }
        self.records[id as usize].response.clone()
    }

    /// Point the lanes at another server (after a restart), keeping
    /// the records.
    pub fn reconnect(&mut self, addr: SocketAddr) -> Result<(), String> {
        for lane in &mut self.lanes {
            *lane = Lane::open(addr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Burn a little CPU so utime is visibly non-zero on any host.
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(0) > 0.0);
        assert!(rss_peak_mib(std::process::id()) > 0.0);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
    }

    #[test]
    fn a_stalled_server_is_never_pipelined_past_the_cap() {
        use crate::workload::Kind;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // A server that sleeps through the first 150 ms — 300 requests
        // at 2 000/s fall due meanwhile — then answers `{"id":N}` line
        // by line, noting the most lines it ever found waiting at once.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let most_waiting = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&most_waiting);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            let (mut buf, mut chunk) = (Vec::new(), [0u8; 64 * 1024]);
            while let Ok(n) = stream.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&chunk[..n]);
                let end = buf.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let lines: Vec<&[u8]> = buf[..end].split(|&b| b == b'\n').collect();
                seen.fetch_max(lines.len() - 1, Ordering::Relaxed);
                let mut out = String::new();
                for line in lines.iter().filter(|l| !l.is_empty()) {
                    let id = response_id(&String::from_utf8_lossy(line)).unwrap();
                    out.push_str(&format!("{{\"id\":{id}}}\n"));
                }
                stream.write_all(out.as_bytes()).unwrap();
                buf.drain(..end);
            }
        });
        let queries = QueryGen::new(Kind::LiveIngest, 8, 1);
        let mut generator = Generator::connect(addr, 1, queries, None).unwrap();
        generator.run(&Plan {
            phase: Phase::Paced,
            duration: Duration::from_millis(400),
            closed: Vec::new(),
            paced: Some((2000.0, vec![0])),
            writer: None,
            limit: None,
            drain: Duration::from_secs(5),
            sample_pid: None,
        });
        assert_eq!(generator.violations, Vec::<String>::new());
        assert_eq!(generator.records.len(), 800);
        assert!(generator.records.iter().all(|r| r.response.is_some()));
        // Nothing re-planned: request i is still due at i / rate, and
        // the one held back at the cap carries the stall as latency.
        let t0 = generator.records[0].due_ns;
        assert_eq!(generator.records[200].due_ns - t0, 100_000_000);
        assert!(generator.records[MAX_PIPELINED].latency_ms().unwrap() > 90.0);
        drop(generator);
        server.join().unwrap();
        assert!(most_waiting.load(Ordering::Relaxed) <= MAX_PIPELINED);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        // Beside the test binary, i.e. inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("a/b")).unwrap();
        std::fs::write(dir.join("x"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("a/b/y"), [0u8; 32]).unwrap();
        assert_eq!(dir_bytes(&dir), 42);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0);
    }
}
