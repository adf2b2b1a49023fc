//! The event-driven socket core: one nonblocking readiness-polled
//! loop owning every connection.
//!
//! One thread runs [`run_event_loop`]. It owns the listener, a waker
//! fd (the dispatcher's doorbell for completed batch replies), and
//! every connection's full state:
//!
//! - a [`FrameBuf`] holding buffered read bytes and codec parse state
//!   (sniffed per connection: line-JSON or binary frames);
//! - a write backlog (`write_buf`/`write_pos`) that absorbs replies
//!   the socket can't take yet, flushed on `POLLOUT` readiness;
//! - backpressure: while a connection's backlog exceeds
//!   [`WRITE_BACKPRESSURE`], the loop stops *reading* from it — a slow
//!   consumer throttles its own pipeline instead of growing the
//!   server's memory;
//! - the stall clock for partial frames
//!   ([`crate::Config::request_timeout`]).
//!
//! Requests decode and execute through [`process_payload`] on both
//! codecs, so replay, coalescing, and fault-injection semantics are
//! bit-identical across them. Mutations parked for the group-commit
//! dispatcher come back through the shared [`Completions`] queue,
//! addressed by connection key: the dispatcher pushes replies and
//! rings the waker; the poll wait returns; the loop encodes each reply
//! in its connection's codec and queues the bytes. No sleep ticks anywhere —
//! the loop blocks in the kernel until a socket, the listener, or the
//! waker is actually ready (the wait timeout exists only to poll the
//! shutdown flag and the stall clocks).
//!
//! Readiness comes from a persistent [`Poller`] (epoll on Linux):
//! connections register once at accept and only re-register when their
//! interest actually changes (backlog appears/drains, backpressure
//! trips, discard starts). A tick therefore costs O(ready fds +
//! changed interests), not O(open connections) — the property that
//! holds 1k-connection throughput at 10k connections (B14). Stall and
//! discard deadlines live in a small side set (`timed`) scanned each
//! tick; membership tracks exactly the connections with a partial
//! frame or an active discard, which is O(1) in steady state.

use crate::codec::{encode_payload, CodecKind, DrainPlan, FrameBuf, FrameError};
use crate::poll::{self, PollEvent, Poller};
use crate::protocol::error_reply;
use crate::server::{process_payload, stall_message, truncated_bytes, RequestAction, Shared};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll-wait timeout: how often the loop re-checks the shutdown flag
/// and partial-frame stalls when nothing is ready.
const POLL_WAIT: Duration = Duration::from_millis(25);

/// Write-backlog watermark (bytes) past which the loop stops reading
/// from a connection until its backlog drains.
const WRITE_BACKPRESSURE: usize = 256 * 1024;

/// Per-read scratch size. Reads loop until `WouldBlock`, so one pass
/// drains however much the socket has regardless of this size.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's complete state, owned by the loop.
struct Conn {
    stream: TcpStream,
    /// Monotone connection index: the fault coordinate, the completion
    /// routing key, and the `conns` map key.
    key: u64,
    /// Per-connection request sequence number (fault coordinate).
    seq: u64,
    /// Frames decoded so far (frame-codec error policy keys off it).
    decoded: u64,
    fb: FrameBuf,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// `Some(t)` while a partial frame is buffered.
    partial_since: Option<Instant>,
    /// Close once the write backlog drains (EOF seen, fatal framing
    /// error answered, shutdown acknowledged, …).
    close_after_flush: bool,
    /// Close abruptly once the backlog drains (injected truncate).
    kill_after_flush: bool,
    /// Stop delivering completions (a truncate already cut the wire).
    dead_to_completions: bool,
    /// In-flight request bytes still to swallow before the close, so
    /// the peer sees a FIN (and the error reply) instead of an RST.
    discard: DrainPlan,
    /// Gives up on the discard if the peer never finishes sending.
    discard_deadline: Option<Instant>,
    /// Interest mask currently registered with the poller; rewritten
    /// only when the desired mask diverges.
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// The interest mask this connection's state calls for right now.
    fn desired_interest(&self) -> (bool, bool) {
        let read = (!self.close_after_flush && self.backlog() < WRITE_BACKPRESSURE)
            || self.discard != DrainPlan::None;
        let write = self.backlog() > 0;
        (read, write)
    }

    /// True while the stall/discard clocks need this connection in the
    /// per-tick timer scan.
    fn needs_timer(&self) -> bool {
        (self.fb.has_partial() && !self.close_after_flush) || self.discard != DrainPlan::None
    }

    fn queue_reply(&mut self, codec: CodecKind, reply: &Value) {
        encode_payload(codec, reply, &mut self.write_buf);
    }

    /// Nonblocking flush of the backlog. Returns `false` when the
    /// connection died mid-write.
    fn flush(&mut self) -> bool {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > (1 << 16) {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        true
    }
}

/// Poller token for the listening socket (connection keys are a
/// monotone counter from zero, so the top of the u64 range is free).
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token for the dispatcher's doorbell.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Runs the event loop until shutdown. See the module docs for the
/// state machine; the caller (`Server::run`) joins the dispatcher.
pub(crate) fn run_event_loop(listener: &TcpListener, shared: &Arc<Shared>) -> std::io::Result<()> {
    // `Server::run` already set the listener nonblocking.
    let (waker, mut wake_rx) = poll::waker()?;
    shared.completions.set_waker(waker);
    let mut poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.add(wake_rx.fd(), TOKEN_WAKER, true, false)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // Connections whose state may have changed this tick: their
    // registered interest is reconciled (and closes reaped) at the end.
    let mut touched: Vec<u64> = Vec::new();
    // Connections with a running stall or discard clock.
    let mut timed: HashSet<u64> = HashSet::new();
    // Scratch reused across ticks.
    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        if shared.stopping() {
            final_flush(&mut conns, shared);
            return Ok(());
        }

        poller.wait(&mut events, POLL_WAIT);

        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_ready = true,
                // Dispatcher doorbell: the wake bytes drain here, the
                // completions themselves a few lines down (they are
                // also drained unconditionally — a completion pushed
                // between wait and drain needs no second tick).
                TOKEN_WAKER => wake_rx.drain(),
                _ => {}
            }
        }

        // Deliver completed batch replies into their connections'
        // backlogs.
        for done in shared.completions.drain() {
            let Some(conn) = conns.get_mut(&done.key) else {
                continue; // connection died while its reply was parked
            };
            if conn.dead_to_completions {
                continue;
            }
            let codec = conn.fb.kind().unwrap_or(CodecKind::Line);
            if done.truncate {
                conn.write_buf
                    .extend_from_slice(&truncated_bytes(codec, &done.reply));
                conn.kill_after_flush = true;
                conn.close_after_flush = true;
                conn.dead_to_completions = true;
            } else {
                conn.queue_reply(codec, &done.reply);
            }
            touched.push(done.key);
        }

        // Accept every pending connection (level-triggered: drain until
        // WouldBlock so one tick never leaves a backlog).
        if accept_ready {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        let key = shared.conns.fetch_add(1, Ordering::SeqCst);
                        if poller.add(stream.as_raw_fd(), key, true, false).is_err() {
                            continue; // fd exhaustion mid-registration
                        }
                        shared.metrics.conn_opened();
                        conns.insert(
                            key,
                            Conn {
                                stream,
                                key,
                                seq: 0,
                                decoded: 0,
                                fb: FrameBuf::new(shared.codec),
                                write_buf: Vec::new(),
                                write_pos: 0,
                                partial_since: None,
                                close_after_flush: false,
                                kill_after_flush: false,
                                dead_to_completions: false,
                                discard: DrainPlan::None,
                                discard_deadline: None,
                                reg_read: true,
                                reg_write: false,
                            },
                        );
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // Transient accept failures (EMFILE, aborted
                    // handshakes): drop this one, keep serving.
                    Err(_) => break,
                }
            }
        }

        // Per-connection I/O for the ready fds only.
        for ev in &events {
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue; // listener/waker token, or already reaped
            };
            let mut alive = true;
            if ev.writable && conn.backlog() > 0 {
                alive = conn.flush();
            }
            if alive && conn.discard != DrainPlan::None {
                if ev.readable || ev.hangup {
                    alive = handle_discard(conn);
                }
            } else if alive && (ev.readable || ev.hangup) && !conn.close_after_flush {
                alive = handle_readable(conn, shared);
            }
            if !alive {
                conn.close_after_flush = true;
                conn.kill_after_flush = true;
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.discard = DrainPlan::None;
            }
            touched.push(ev.token);
        }

        // Stall and discard clocks (poll granularity): scan only the
        // connections that actually have one running.
        for key in timed.iter() {
            let Some(conn) = conns.get_mut(key) else {
                continue;
            };
            if conn.fb.has_partial() && !conn.close_after_flush {
                let since = *conn.partial_since.get_or_insert_with(Instant::now);
                if since.elapsed() > shared.request_timeout {
                    let codec = conn.fb.kind().unwrap_or(CodecKind::Line);
                    let reply = error_reply(stall_message(codec));
                    conn.queue_reply(codec, &reply);
                    conn.close_after_flush = true;
                    touched.push(*key);
                }
            }
            if conn.discard != DrainPlan::None
                && matches!(conn.discard_deadline, Some(d) if Instant::now() >= d)
            {
                conn.discard = DrainPlan::None;
                touched.push(*key);
            }
        }

        // Reconcile every touched connection: reap closed ones, keep
        // the timer set current, rewrite diverged interest masks.
        for key in touched.drain(..) {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            // Optimistic flush: a freshly queued reply almost always
            // fits the socket buffer, so try now instead of paying an
            // epoll_ctl plus a tick of latency to hear POLLOUT. Skip
            // when write interest is already registered — the socket
            // was genuinely full last time.
            if conn.backlog() > 0 && !conn.reg_write && !conn.flush() {
                conn.close_after_flush = true;
                conn.kill_after_flush = true;
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.discard = DrainPlan::None;
            }
            if conn.close_after_flush && conn.backlog() == 0 && conn.discard == DrainPlan::None {
                if conn.kill_after_flush {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                poller.remove(conn.stream.as_raw_fd());
                conns.remove(&key);
                timed.remove(&key);
                shared.metrics.conn_closed();
                continue;
            }
            if conn.needs_timer() {
                timed.insert(key);
            } else {
                timed.remove(&key);
            }
            let (read, write) = conn.desired_interest();
            if (read, write) != (conn.reg_read, conn.reg_write) {
                poller.modify(conn.stream.as_raw_fd(), key, read, write);
                conn.reg_read = read;
                conn.reg_write = write;
            }
        }
    }
}

/// Swallows in-flight bytes of an errored oversized request until its
/// drain plan is satisfied (or `WouldBlock`/EOF). Returns `false` when
/// the connection is gone.
fn handle_discard(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; READ_CHUNK];
    loop {
        let want = match conn.discard {
            DrainPlan::None => return true,
            DrainPlan::UntilNewline | DrainPlan::UntilEof => scratch.len(),
            DrainPlan::Bytes(left) => scratch.len().min(left),
        };
        match conn.stream.read(&mut scratch[..want]) {
            Ok(0) => {
                conn.discard = DrainPlan::None;
                return true;
            }
            Ok(n) => match conn.discard {
                DrainPlan::UntilNewline => {
                    if scratch[..n].contains(&b'\n') {
                        conn.discard = DrainPlan::None;
                    }
                }
                DrainPlan::UntilEof => {}
                DrainPlan::Bytes(left) => {
                    conn.discard = match left - n {
                        0 => DrainPlan::None,
                        rest => DrainPlan::Bytes(rest),
                    };
                }
                DrainPlan::None => return true,
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Reads a connection until `WouldBlock`, decoding and processing every
/// complete frame. Returns `false` when the connection is gone.
fn handle_readable(conn: &mut Conn, shared: &Shared) -> bool {
    let mut scratch = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                // EOF. Answer a final unterminated line, then flush out.
                match conn.fb.eof_residual() {
                    Ok(Some(payload)) => {
                        let codec = conn.fb.kind().unwrap_or(CodecKind::Line);
                        shared.metrics.codec_request(codec);
                        let action = process_payload(shared, &payload, conn.key, conn.seq);
                        apply_action(conn, codec, action);
                    }
                    Ok(None) => {}
                    Err(e) => queue_frame_error(conn, shared, &e),
                }
                conn.close_after_flush = true;
                return true;
            }
            Ok(n) => {
                conn.fb.push(&scratch[..n]);
                decode_frames(conn, shared);
                if conn.close_after_flush {
                    return true;
                }
                // Backpressure: a pipelining client whose replies are
                // backing up stops being read until the backlog drains.
                if conn.backlog() >= WRITE_BACKPRESSURE {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Decodes every complete frame currently buffered, stopping early
/// once the connection is marked for close.
fn decode_frames(conn: &mut Conn, shared: &Shared) {
    loop {
        match conn.fb.next_payload() {
            Ok(Some(payload)) => {
                conn.partial_since = None;
                conn.decoded += 1;
                let codec = conn.fb.kind().expect("kind is sniffed once decoding");
                shared.metrics.codec_request(codec);
                let action = process_payload(shared, &payload, conn.key, conn.seq);
                conn.seq += 1;
                apply_action(conn, codec, action);
                if conn.close_after_flush {
                    return;
                }
            }
            Ok(None) => {
                if conn.fb.has_partial() {
                    conn.partial_since.get_or_insert_with(Instant::now);
                } else {
                    conn.partial_since = None;
                }
                return;
            }
            Err(e) => {
                queue_frame_error(conn, shared, &e);
                return;
            }
        }
    }
}

/// Applies a [`RequestAction`] to the connection's write state.
fn apply_action(conn: &mut Conn, codec: CodecKind, action: RequestAction) {
    match action {
        RequestAction::Parked => {}
        RequestAction::SilentClose => {
            // Injected drop: no reply for *this* request; earlier
            // replies still in the backlog flush out first, then the
            // connection closes — the client observes a mid-pipeline
            // cutoff either way.
            conn.close_after_flush = true;
        }
        RequestAction::Reply {
            reply,
            stop,
            truncate,
        } => {
            if truncate {
                conn.write_buf
                    .extend_from_slice(&truncated_bytes(codec, &reply));
                conn.kill_after_flush = true;
                conn.close_after_flush = true;
                conn.dead_to_completions = true;
                return;
            }
            conn.queue_reply(codec, &reply);
            if stop {
                conn.close_after_flush = true;
            }
        }
    }
}

/// Queues the structured reply for a framing error when that is safe,
/// and marks the connection for close. On the line codec an error reply
/// is always safe. On the frame codec it is sent only once at least one
/// frame decoded (or the codec was refused) — before that, the "binary"
/// bytes may be arbitrary junk that merely began with the magic byte,
/// and answering junk with binary would confuse line-speaking probes;
/// those get a clean drop.
fn queue_frame_error(conn: &mut Conn, shared: &Shared, err: &FrameError) {
    shared.metrics.record("invalid", false, Duration::ZERO);
    conn.discard = conn.fb.drain_plan(err);
    if conn.discard != DrainPlan::None {
        conn.discard_deadline =
            Some(Instant::now() + shared.request_timeout.max(Duration::from_millis(100)));
    }
    let codec = match err {
        FrameError::Refused(got) => *got,
        _ => conn.fb.kind().unwrap_or(CodecKind::Line),
    };
    let structured = match codec {
        CodecKind::Line => true,
        CodecKind::Frame => conn.decoded > 0 || matches!(err, FrameError::Refused(_)),
    };
    if structured {
        let reply = error_reply(&err.message());
        conn.queue_reply(codec, &reply);
    }
    conn.close_after_flush = true;
}

/// Best-effort blocking flush of every backlog on shutdown, so replies
/// already produced (the `shutdown` acknowledgement in particular)
/// reach their clients before the loop exits.
fn final_flush(conns: &mut HashMap<u64, Conn>, shared: &Shared) {
    for (_, conn) in conns.drain() {
        shared.metrics.conn_closed();
        if conn.backlog() > 0 {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(250)));
            let mut stream = conn.stream;
            let _ = stream.write_all(&conn.write_buf[conn.write_pos..]);
            let _ = stream.flush();
        }
    }
}
