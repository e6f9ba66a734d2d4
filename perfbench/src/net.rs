//! The load generator: one wire connection type, an open-loop runner that
//! walks one merged schedule over up to two sockets with one sender
//! thread and one receiver thread, and the blocking request/reply used
//! by closed-loop clients.

use pass_distrib::wire::WireMsg;
use pass_model::TupleSetId;
use pass_server::frame::{encode_msg, FrameDecoder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn invalid(msg: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// One client connection and its frame decoder.
pub struct Wire {
    pub stream: TcpStream,
    pub decoder: FrameDecoder,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire { stream, decoder: FrameDecoder::new() })
    }

    pub fn send(&mut self, msg: &WireMsg) -> std::io::Result<()> {
        self.stream.write_all(&encode_msg(msg))
    }

    /// The next message, waiting at most `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<WireMsg> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 64 << 10];
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(invalid)? {
                return WireMsg::decode_body(frame.kind, &frame.payload).map_err(invalid);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "no reply"));
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut buf)? {
                0 => return Err(invalid("connection closed")),
                n => self.decoder.extend(&buf[..n]),
            }
        }
    }

    /// Sends `msg` and waits for the reply carrying its op, skipping
    /// pushes. Returns the send and receive instants with the reply.
    pub fn request(
        &mut self,
        frame: &[u8],
        op: u64,
        timeout: Duration,
    ) -> std::io::Result<(Instant, Instant, WireMsg)> {
        let sent = Instant::now();
        self.stream.write_all(frame)?;
        loop {
            let msg = self.recv(timeout)?;
            if msg.op() == op {
                return Ok((sent, Instant::now(), msg));
            }
        }
    }
}

/// One scheduled request of an open-loop run. Its op id is its index
/// in the plan plus one.
pub struct Planned {
    pub due: Duration,
    pub conn: usize,
    pub frame: Vec<u8>,
}

/// What an open-loop run observed, indexed by op id − 1.
pub struct OpenLoopOut {
    pub start: Instant,
    pub sent: Vec<Option<Instant>>,
    pub replies: Vec<Option<(Instant, WireMsg)>>,
    /// Every `Notify` push: receive instant and ids.
    pub notifies: Vec<(Instant, Vec<TupleSetId>)>,
    /// Records the server reported shed from the subscription stream.
    pub lagged: u64,
    /// Framing or decode failures seen by the receiver.
    pub transport_errors: u64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Blocks until one of `fds` is readable or `timeout_ms` passes; returns
/// which fds have something (data, EOF or error) to read.
fn wait_readable(fds: &[i32], timeout_ms: i32) -> Vec<bool> {
    let mut polls: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    // SAFETY: `polls` is a live, exclusively borrowed array of
    // `polls.len()` `PollFd`s laid out as the C `struct pollfd`; poll(2)
    // writes only their `revents` fields and keeps no pointer past return.
    let n = unsafe { poll(polls.as_mut_ptr(), polls.len() as std::os::raw::c_ulong, timeout_ms) };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    polls.iter().map(|p| p.revents != 0).collect()
}

/// Runs `plan` open-loop over `wires`: the sender writes each frame at
/// its due instant (late, never re-planned, if it falls behind) and the
/// receiver attributes every reply to its op. The run ends when every op
/// is answered and `expect_notify` pushed ids have arrived, or at
/// `window + drain`; pushes still missing after answers are complete get
/// one more second.
pub fn open_loop(
    wires: &mut [Wire],
    plan: &[Planned],
    window: Duration,
    drain: Duration,
    expect_notify: usize,
) -> std::io::Result<OpenLoopOut> {
    let mut writers = Vec::with_capacity(wires.len());
    for w in wires.iter() {
        let writer = w.stream.try_clone()?;
        w.stream.set_read_timeout(None)?;
        writers.push(writer);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + window + drain;
    let total = plan.len();

    let (sent, mut out) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = vec![None; total];
            for (slot, item) in sent.iter_mut().zip(plan) {
                let due = start + item.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if writers[item.conn].write_all(&item.frame).is_err() {
                    break;
                }
                *slot = Some(Instant::now());
            }
            sent
        });
        let out = receive(wires, total, start, deadline, expect_notify);
        (sender.join().expect("sender thread panicked"), out)
    });
    out.sent = sent;
    Ok(out)
}

fn receive(
    wires: &mut [Wire],
    total: usize,
    start: Instant,
    deadline: Instant,
    expect_notify: usize,
) -> OpenLoopOut {
    let mut out = OpenLoopOut {
        start,
        sent: Vec::new(),
        replies: (0..total).map(|_| None).collect(),
        notifies: Vec::new(),
        lagged: 0,
        transport_errors: 0,
    };
    let mut fds: Vec<i32> = wires.iter().map(|w| w.stream.as_raw_fd()).collect();
    let mut open = vec![true; wires.len()];
    let mut buf = vec![0u8; 256 << 10];
    let (mut answered, mut notified) = (0usize, 0usize);
    let mut all_answered_at: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if answered == total {
            let at = *all_answered_at.get_or_insert(now);
            if notified >= expect_notify || now > at + Duration::from_secs(1) {
                break;
            }
        }
        if now > deadline || !open.iter().any(|&o| o) {
            break;
        }
        let ready = wait_readable(&fds, 20);
        for (i, wire) in wires.iter_mut().enumerate() {
            if !ready[i] || !open[i] {
                continue;
            }
            match wire.stream.read(&mut buf) {
                Ok(0) | Err(_) => {
                    // poll(2) skips negative fds.
                    open[i] = false;
                    fds[i] = -1;
                    continue;
                }
                Ok(n) => wire.decoder.extend(&buf[..n]),
            }
            // Stamped after the read: every frame it returned had arrived.
            let now = Instant::now();
            loop {
                let frame = match wire.decoder.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        out.transport_errors += 1;
                        open[i] = false;
                        fds[i] = -1;
                        break;
                    }
                };
                let Ok(msg) = WireMsg::decode_body(frame.kind, &frame.payload) else {
                    out.transport_errors += 1;
                    continue;
                };
                match msg {
                    WireMsg::Notify { ids, .. } => {
                        notified += ids.len();
                        out.notifies.push((now, ids));
                    }
                    WireMsg::Lagged { missed, .. } => out.lagged += missed,
                    WireMsg::PublishOk { op, .. }
                    | WireMsg::ResultPage { op, .. }
                    | WireMsg::Overloaded { op }
                    | WireMsg::Error { op, .. } => {
                        let slot =
                            op.checked_sub(1).and_then(|at| out.replies.get_mut(at as usize));
                        if let Some(slot @ None) = slot {
                            *slot = Some((now, msg));
                            answered += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}
