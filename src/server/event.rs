//! The evented front end of [`Server`](crate::server::Server), serving
//! `mhxd` and `mhxr` alike: one readiness loop owns
//! **every** client socket in nonblocking mode, parses requests
//! incrementally off readiness notifications, and hands complete requests
//! to the small [`DispatchPool`]. Thread count is `workers + 1` (the
//! event loop doubles as the acceptor), independent of connection count —
//! a thousand parked keep-alive clients cost a connection-table entry
//! each, not a thread each.
//!
//! On Linux the loop is raw `epoll(7)` via the same raw-libc discipline
//! the binaries use for `signal(2)` — no tokio, no mio, offline build.
//! Elsewhere a degraded tick-based poller keeps the build portable (see
//! [`sys`]).
//!
//! ## Connection table
//!
//! Connections live in a table keyed by a monotonically increasing
//! **token** (never reused, so a stale readiness event for a closed fd
//! cannot hit a recycled connection). Each entry carries the socket, the
//! incremental parse buffer + scan offset, the parsed-ahead request
//! queue, the ordered output buffer, and the front end's per-connection
//! state ([`Service::Conn`] — session pin, prepared handles, options).
//!
//! ## Pipelining and replies
//!
//! Requests parse ahead into the entry's `pending` queue (bounded by
//! [`PIPELINE_MAX`]); execution stays **serial per connection** — one
//! request in a worker at a time, so per-connection state needs no lock
//! and replies leave in arrival order. The worker formats the reply. When
//! the request was dispatched with the output buffer flushed and nothing
//! queued behind it, the worker writes the reply straight to the
//! nonblocking socket (the loop and the job share the stream) and posts
//! the state back through the completion queue *without* waking the
//! loop, which collects it on its next wake-up. The worker wakes the loop
//! only when the loop has something to do for that connection: the rest
//! of a short write, a connection that must close, or whatever the loop
//! queued while the request ran (a parsed request, a protocol error, the
//! peer's half-close). The loop flags those on the connection before it
//! drains the completion queue, so a state never sits behind a sleeping
//! loop: a worker that posts before the flag is collected by that drain,
//! one that posts after it sees the flag and wakes the loop. Any other
//! reply travels back with the state, and the loop appends it to the
//! output buffer and dispatches the next pending request. Reads pause
//! (interest is dropped) while the pipeline or the output backlog is over
//! its cap; level-triggered readiness re-fires when interest returns.
//!
//! ## Panics
//!
//! A request whose handler panics is answered `500` with the `internal`
//! wire kind and `Connection: close`. The worker survives, the state
//! comes back through the completion queue (and is released when the
//! connection closes), and [`Service::note_panic`] counts it.
//!
//! ## Drain
//!
//! Once [`Service::draining`] flips, the loop stops admitting accepted
//! sockets, closes idle connections within one poll interval, and keeps
//! running until every in-flight request has been *completely written* —
//! a response in progress is never truncated. Half-received requests get
//! the request timeout to finish (the same slow-loris bound that applies
//! while serving), and a hard deadline backstops a peer that never reads
//! its response.

use crate::server::accept::{DispatchPool, JobQueue};
use crate::server::http::{self, ParseError, Request};
use crate::server::{wire, ServerConfig};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// What the event loop needs from a front end. `Conn` is the
/// per-connection state that used to live on a worker's stack; it is
/// `Send + 'static` because it travels into a worker alongside each
/// dispatched request and back through the completion queue.
pub(crate) trait Service: Send + Sync + 'static {
    type Conn: Send + 'static;

    /// A connection was admitted: build its state (and count it).
    fn connect(&self, stream: &TcpStream) -> Self::Conn;

    /// Execute one complete request and return its status and encoded
    /// JSON body. Runs on a worker thread; the event loop guarantees at
    /// most one in-flight request per connection.
    fn handle(&self, conn: &mut Self::Conn, req: &Request) -> (u16, String);

    /// The connection is gone; release its state.
    fn disconnect(&self, conn: Self::Conn);

    /// True once the front end is shutting down.
    fn draining(&self) -> bool;

    /// A request was parsed while an earlier one from the same connection
    /// was still queued or executing (i.e. the client pipelined).
    fn note_pipelined(&self) {}

    /// [`Service::handle`] panicked; the request was answered `500`
    /// (`internal`) and its connection closes.
    fn note_panic(&self) {}
}

const TOKEN_LISTENER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// Parse-ahead cap per connection: pipelined requests beyond this stay
/// in the kernel/read buffer until the queue drains.
const PIPELINE_MAX: usize = 64;
/// Output-backlog cap per connection before reads pause (a client that
/// pipelines but never reads responses must not buffer unbounded).
const OUT_MAX: usize = 1 << 20;
/// Read chunk size per readiness notification.
const CHUNK: usize = 16 * 1024;
/// Hard backstop for drain: after this, still-open connections (a peer
/// not reading its response, a half-request that never finished) are
/// force-closed so shutdown terminates. In-flight *execution* is bounded
/// by the engine's own drain, which the owner runs after the loop exits.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Handle to a running event loop + its worker pool.
pub(crate) struct EventLoop {
    thread: Option<thread::JoinHandle<()>>,
    pool: DispatchPool,
    waker: sys::Waker,
}

impl EventLoop {
    /// Start the loop thread (named `{name}-event-loop`) plus
    /// `cfg.workers` dispatch workers. The listener is moved into the loop, which also
    /// accepts — no separate acceptor thread.
    pub(crate) fn start<S: Service>(
        listener: TcpListener,
        name: &str,
        cfg: ServerConfig,
        service: Arc<S>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let (mut poller, waker) = sys::Poller::new()?;
        poller.register(raw_fd(&listener), TOKEN_LISTENER, true, false)?;
        let pool = DispatchPool::start(name, cfg.workers);
        let lp = Loop {
            poller,
            listener,
            service,
            cfg,
            jobs: pool.queue(),
            completions: Arc::new(Mutex::new(VecDeque::new())),
            waker: waker.clone(),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        let thread = thread::Builder::new()
            .name(format!("{name}-event-loop"))
            .spawn(move || lp.run())
            .expect("spawn event loop thread");
        Ok(EventLoop { thread: Some(thread), pool, waker })
    }

    /// Join everything. The caller must have flipped its drain flag
    /// first; the wake-up makes the loop notice immediately instead of
    /// one poll interval later.
    pub(crate) fn shutdown(&mut self) {
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // Nothing submits once the loop has exited; the workers finish
        // what is queued and exit.
        self.pool.join();
    }
}

/// A finished request on its way back from a worker: the state, and the
/// part of the reply the worker did not write itself (empty when it
/// wrote it all).
struct Completion<C> {
    token: u64,
    state: C,
    bytes: Vec<u8>,
    keep: bool,
}

type CompletionQueue<C> = Arc<Mutex<VecDeque<Completion<C>>>>;

/// One connection's slot in the table.
struct ConnEntry<C> {
    /// Shared with a job that may write its reply directly.
    stream: Arc<TcpStream>,
    fd: i32,
    /// Unparsed inbound bytes + the head-search resume offset.
    buf: Vec<u8>,
    scan: usize,
    /// Ordered outbound bytes; `out_pos` is the flush frontier.
    out: Vec<u8>,
    out_pos: usize,
    /// Complete requests parsed ahead of execution (pipelining).
    pending: VecDeque<Request>,
    /// The front end's per-connection state; `None` exactly while a
    /// worker holds it (`in_worker`).
    state: Option<C>,
    in_worker: bool,
    /// Set while a worker holds the state and the loop has queued
    /// something for this connection: the worker must then wake the loop
    /// when it posts its completion.
    recall: Arc<AtomicBool>,
    close_after_flush: bool,
    /// A protocol-error response (400/408/413) waiting for the in-flight
    /// request (if any) to finish, so ordering holds even on errors.
    fatal: Option<Vec<u8>>,
    /// Peer half-closed its write side; serve what's queued, then close.
    read_closed: bool,
    want_read: bool,
    want_write: bool,
    /// When the currently half-received request started arriving
    /// (slow-loris bound).
    partial_since: Option<Instant>,
    /// Last time the connection did anything (accepted, bytes read, a
    /// response completed) — the idle keep-alive eviction clock.
    last_activity: Instant,
}

struct Loop<S: Service> {
    poller: sys::Poller,
    listener: TcpListener,
    service: Arc<S>,
    cfg: ServerConfig,
    jobs: JobQueue,
    completions: CompletionQueue<S::Conn>,
    waker: sys::Waker,
    conns: HashMap<u64, ConnEntry<S::Conn>>,
    next_token: u64,
}

impl<S: Service> Loop<S> {
    fn run(mut self) {
        let mut events: Vec<sys::Event> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            self.poller.wait(&mut events, self.cfg.poll_interval);
            // States whose replies their workers wrote wait here without
            // a wake; take them back before reading, so that a request
            // following such a reply does not count as pipelined.
            self.drain_completions();
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev.readable, ev.writable),
                }
            }
            self.sweep_timeouts();
            // After every recall flag this round set (see the module doc).
            self.drain_completions();
            if self.service.draining() {
                let t0 = *drain_started.get_or_insert_with(Instant::now);
                self.close_idle_for_drain();
                if self.conns.is_empty() {
                    break;
                }
                if t0.elapsed() > DRAIN_DEADLINE {
                    for token in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_now(token);
                    }
                    break;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.service.draining() {
                        continue; // reject: drop the socket immediately
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = raw_fd(&stream);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(fd, token, true, false).is_err() {
                        continue;
                    }
                    let state = self.service.connect(&stream);
                    self.conns.insert(
                        token,
                        ConnEntry {
                            stream: Arc::new(stream),
                            fd,
                            buf: Vec::new(),
                            scan: 0,
                            out: Vec::new(),
                            out_pos: 0,
                            pending: VecDeque::new(),
                            state: Some(state),
                            in_worker: false,
                            recall: Arc::default(),
                            close_after_flush: false,
                            fatal: None,
                            read_closed: false,
                            want_read: true,
                            want_write: false,
                            partial_since: None,
                            last_activity: Instant::now(),
                        },
                    );
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // EMFILE and friends: stop for this round; level-triggered
                // readiness retries on the next wait.
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        if writable {
            self.flush(token);
        }
        let mut read_some = false;
        {
            let Some(entry) = self.conns.get_mut(&token) else { return };
            if readable && entry.want_read && !entry.read_closed {
                let mut chunk = [0u8; CHUNK];
                match (&*entry.stream).read(&mut chunk) {
                    Ok(0) => entry.read_closed = true,
                    Ok(n) => {
                        entry.buf.extend_from_slice(&chunk[..n]);
                        entry.last_activity = Instant::now();
                        read_some = true;
                    }
                    Err(ref e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                        ) => {}
                    Err(_) => {
                        // Abrupt disconnect (reset mid-request): nothing
                        // can be sent back; free the slot now.
                        self.close_now(token);
                        return;
                    }
                }
            }
        }
        if read_some || self.conns.get(&token).is_some_and(|e| e.read_closed) {
            self.pump(token);
        }
    }

    /// Parse whatever is buffered, dispatch if the connection is free,
    /// refresh readiness interest, and flush. Safe to call whenever a
    /// connection's inputs changed (bytes read, completion landed,
    /// timeout fired).
    fn pump(&mut self, token: u64) {
        let mut pipelined = 0u32;
        {
            let Some(entry) = self.conns.get_mut(&token) else { return };
            let mut incomplete = false;
            while entry.fatal.is_none()
                && entry.pending.len() < PIPELINE_MAX
                && entry.out.len() - entry.out_pos < OUT_MAX
            {
                match http::try_parse(&mut entry.buf, &mut entry.scan, self.cfg.max_body) {
                    Ok(Some(req)) => {
                        if entry.in_worker || !entry.pending.is_empty() {
                            pipelined += 1;
                        }
                        entry.pending.push_back(req);
                    }
                    Ok(None) => {
                        incomplete = !entry.buf.is_empty();
                        break;
                    }
                    Err(ParseError::Bad(message)) => {
                        let body = wire::protocol_error_body("bad_request", &message);
                        entry.fatal = Some(http::format_response(400, &body.to_string(), false));
                    }
                    Err(ParseError::TooLarge) => {
                        let body =
                            wire::protocol_error_body("too_large", "request exceeds size limits");
                        entry.fatal = Some(http::format_response(413, &body.to_string(), false));
                    }
                }
            }
            entry.partial_since = if incomplete {
                entry.partial_since.or_else(|| Some(Instant::now()))
            } else {
                None
            };
            if entry.fatal.is_some() {
                // A protocol error poisons the connection: drop parsed-
                // ahead requests (the in-flight one still completes first)
                // and everything unread.
                entry.pending.clear();
                entry.buf.clear();
                entry.scan = 0;
                entry.partial_since = None;
            }
            if entry.read_closed && incomplete {
                // Peer quit mid-request; there is nothing to answer.
                entry.buf.clear();
                entry.scan = 0;
                entry.partial_since = None;
            }
            if entry.in_worker
                && (!entry.pending.is_empty() || entry.fatal.is_some() || entry.read_closed)
            {
                // SeqCst pairs with the worker's load after its push: the
                // completion queue's lock orders the push against the
                // loop's next drain (see the module doc).
                entry.recall.store(true, Ordering::SeqCst);
            }
        }
        for _ in 0..pipelined {
            self.service.note_pipelined();
        }
        self.dispatch(token);
        self.update_interest(token);
        self.flush(token);
    }

    /// Hand the next pending request to a worker (serial per connection),
    /// or emit a queued fatal response once the line is free.
    fn dispatch(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        if entry.in_worker || entry.close_after_flush {
            return;
        }
        if let Some(bytes) = entry.fatal.take() {
            entry.out.extend_from_slice(&bytes);
            entry.close_after_flush = true;
            return;
        }
        let Some(req) = entry.pending.pop_front() else { return };
        let state = entry.state.take().expect("state present when not in a worker");
        entry.in_worker = true;
        entry.recall.store(false, Ordering::SeqCst);
        // The reply may bypass the loop only when nothing goes out before
        // it and nothing waits behind it.
        let direct =
            entry.out_pos >= entry.out.len() && entry.pending.is_empty() && !entry.read_closed;
        let job = ReplyJob {
            token,
            stream: direct.then(|| Arc::clone(&entry.stream)),
            recall: Arc::clone(&entry.recall),
            completions: Arc::clone(&self.completions),
            waker: self.waker.clone(),
        };
        let service = Arc::clone(&self.service);
        self.jobs.submit(Box::new(move || job.run(&*service, state, &req)));
    }

    fn drain_completions(&mut self) {
        loop {
            let next = {
                let mut q = self.completions.lock().unwrap_or_else(PoisonError::into_inner);
                q.pop_front()
            };
            let Some(c) = next else { break };
            match self.conns.get_mut(&c.token) {
                // The connection died while its request ran; the response
                // has nowhere to go, but the state still must be released.
                None => self.service.disconnect(c.state),
                Some(entry) => {
                    entry.in_worker = false;
                    entry.state = Some(c.state);
                    entry.last_activity = Instant::now();
                    entry.out.extend_from_slice(&c.bytes);
                    if !c.keep {
                        entry.close_after_flush = true;
                        entry.pending.clear();
                    }
                    self.pump(c.token);
                }
            }
        }
    }

    /// 408 any connection whose half-received request outlived the
    /// request timeout — a byte-trickling client costs a table entry,
    /// never a worker, and not forever.
    fn sweep_timeouts(&mut self) {
        let timeout = self.cfg.request_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| e.partial_since.is_some_and(|t| t.elapsed() > timeout))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            if let Some(entry) = self.conns.get_mut(&token) {
                let body = wire::protocol_error_body("timeout", "request did not complete");
                entry.fatal = Some(http::format_response(408, &body.to_string(), false));
                entry.partial_since = None;
            }
            self.pump(token);
        }
        self.sweep_idle();
    }

    /// Close keep-alive connections that have been completely idle past
    /// `max_idle`: no half-received request (that is the slow-loris
    /// sweep's job), nothing queued or in flight, output fully flushed.
    /// Rides the same poll-interval cadence as the timeout sweep.
    fn sweep_idle(&mut self) {
        let Some(max_idle) = self.cfg.max_idle else { return };
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| {
                !e.in_worker
                    && e.pending.is_empty()
                    && e.out_pos >= e.out.len()
                    && e.fatal.is_none()
                    && e.partial_since.is_none()
                    && e.last_activity.elapsed() > max_idle
            })
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_now(token);
        }
    }

    /// During drain, close connections with nothing queued, nothing
    /// buffered, and nothing in flight. Everything else finishes first.
    fn close_idle_for_drain(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| {
                // A half-received request (non-empty `buf`) does not make a
                // connection busy: drain never waits on bytes that may never
                // arrive, only on responses already owed.
                !e.in_worker
                    && e.pending.is_empty()
                    && e.out_pos >= e.out.len()
                    && e.fatal.is_none()
            })
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_now(token);
        }
    }

    fn flush(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(entry) = self.conns.get_mut(&token) else { return };
            loop {
                if entry.out_pos >= entry.out.len() {
                    entry.out.clear();
                    entry.out_pos = 0;
                    break;
                }
                match (&*entry.stream).write(&entry.out[entry.out_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => entry.out_pos += n,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Reclaim the flushed prefix so a slow reader's
                        // backlog doesn't grow monotonically.
                        if entry.out_pos > 0 {
                            entry.out.drain(..entry.out_pos);
                            entry.out_pos = 0;
                        }
                        break;
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close && entry.out.is_empty() {
                let served_out = entry.close_after_flush
                    || (entry.read_closed
                        && !entry.in_worker
                        && entry.pending.is_empty()
                        && entry.fatal.is_none());
                if served_out {
                    close = true;
                }
            }
        }
        if close {
            self.close_now(token);
        } else {
            self.update_interest(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        let backlog = entry.out.len() - entry.out_pos;
        let read = !entry.read_closed
            && entry.fatal.is_none()
            && !entry.close_after_flush
            && entry.pending.len() < PIPELINE_MAX
            && backlog < OUT_MAX;
        let write = backlog > 0;
        if read != entry.want_read || write != entry.want_write {
            entry.want_read = read;
            entry.want_write = write;
            let _ = self.poller.modify(entry.fd, token, read, write);
        }
    }

    fn close_now(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.deregister(entry.fd, token);
            if let Some(state) = entry.state {
                self.service.disconnect(state);
            }
            // `in_worker` state comes home via the completion queue and
            // is disconnected there.
        }
    }
}

/// Where a dispatched request's reply goes: straight to the socket when
/// the loop allowed it (`stream`), else back with the state.
struct ReplyJob<C> {
    token: u64,
    stream: Option<Arc<TcpStream>>,
    recall: Arc<AtomicBool>,
    completions: CompletionQueue<C>,
    waker: sys::Waker,
}

impl<C> ReplyJob<C> {
    /// Run `req` on a worker, answer it, and post the state back.
    fn run<S: Service<Conn = C>>(self, service: &S, mut state: C, req: &Request) {
        let handled = panic::catch_unwind(AssertUnwindSafe(|| service.handle(&mut state, req)));
        let (status, body, keep) = match handled {
            // Keep-alive folds the client's wish and the drain state.
            Ok((status, body)) => (status, body, !req.close && !service.draining()),
            Err(_) => {
                service.note_panic();
                (500, wire::internal_body().to_string(), false)
            }
        };
        let mut bytes = http::format_response(status, &body, keep);
        if let Some(stream) = &self.stream {
            let sent = write_now(stream, &bytes);
            bytes.drain(..sent);
        }
        let wake = !keep || !bytes.is_empty();
        self.completions.lock().unwrap_or_else(PoisonError::into_inner).push_back(Completion {
            token: self.token,
            state,
            bytes,
            keep,
        });
        // Checked after the push (see the module doc). A drain that began
        // after `keep` was decided would otherwise wait a poll tick.
        if wake || self.recall.load(Ordering::SeqCst) || service.draining() {
            self.waker.wake();
        }
    }
}

/// Write as much of `bytes` as the nonblocking socket takes now and
/// return how much that was. It stops at `WouldBlock` or an error; the
/// loop's flush meets either again with the rest and handles it.
fn write_now(mut stream: &TcpStream, bytes: &[u8]) -> usize {
    let mut sent = 0;
    while sent < bytes.len() {
        match stream.write(&bytes[sent..]) {
            Ok(0) => break,
            Ok(n) => sent += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    sent
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// Readiness backends. Linux gets the real thing — raw `epoll(7)` plus a
/// self-pipe waker, std-only via `extern "C"` like the binaries' signal
/// handling. Other platforms get a tick poller: every registered
/// connection is reported maybe-ready each short tick and the
/// nonblocking reads/writes discover the truth — degraded (O(conns) per
/// tick) but correct, and it keeps the crate building everywhere.
#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const O_NONBLOCK: i32 = 0x800;
    const O_CLOEXEC: i32 = 0x80000;

    /// Matches the kernel ABI: packed on x86_64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// The waker's pipe read end lives under this reserved token; the
    /// poller drains it internally and never reports it.
    const WAKE_TOKEN: u64 = u64::MAX;

    pub(super) struct Event {
        pub(super) token: u64,
        pub(super) readable: bool,
        pub(super) writable: bool,
    }

    pub(super) struct Poller {
        ep: i32,
        wake_rx: i32,
    }

    /// Write end of the self-pipe; one byte makes `wait` return early.
    /// Cloned into every worker job.
    #[derive(Clone)]
    pub(super) struct Waker(Arc<WakeFd>);

    struct WakeFd(i32);

    impl Drop for WakeFd {
        fn drop(&mut self) {
            unsafe { close(self.0) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_rx);
                close(self.ep);
            }
        }
    }

    fn interest(read: bool, write: bool) -> u32 {
        let mut events = 0;
        if read {
            events |= EPOLLIN;
        }
        if write {
            events |= EPOLLOUT;
        }
        events
    }

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Waker)> {
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io::Error::last_os_error());
            }
            let mut fds = [0i32; 2];
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(ep) };
                return Err(e);
            }
            let poller = Poller { ep, wake_rx: fds[0] };
            let waker = Waker(Arc::new(WakeFd(fds[1])));
            poller.ctl(EPOLL_CTL_ADD, fds[0], WAKE_TOKEN, EPOLLIN)?;
            Ok((poller, waker))
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            if unsafe { epoll_ctl(self.ep, op, fd, &mut ev) } < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub(super) fn register(&mut self, fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest(r, w))
        }

        pub(super) fn modify(&mut self, fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest(r, w))
        }

        pub(super) fn deregister(&mut self, fd: i32, _token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
            out.clear();
            let mut evs = [EpollEvent { events: 0, data: 0 }; 256];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.ep, evs.as_mut_ptr(), evs.len() as i32, ms) };
            if n <= 0 {
                return; // timeout, or EINTR — the caller just loops
            }
            for ev in evs.iter().take(n as usize) {
                // By-value copies: fields of a packed struct must not be
                // borrowed.
                let (events, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    let mut sink = [0u8; 64];
                    while unsafe { read(self.wake_rx, sink.as_mut_ptr(), sink.len()) } > 0 {}
                    continue;
                }
                // ERR/HUP surface as readability/writability so the
                // nonblocking I/O discovers the condition and closes.
                out.push(Event {
                    token,
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
        }
    }

    impl Waker {
        pub(super) fn wake(&self) {
            let byte = 1u8;
            // A full pipe is fine: the loop is already awake-pending.
            unsafe { write(self.0 .0, &byte, 1) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    pub(super) struct Event {
        pub(super) token: u64,
        pub(super) readable: bool,
        pub(super) writable: bool,
    }

    pub(super) struct Poller {
        interests: HashMap<u64, (bool, bool)>,
    }

    /// No self-pipe on the tick poller: the short tick bounds completion
    /// latency instead.
    #[derive(Clone)]
    pub(super) struct Waker;

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Waker)> {
            Ok((Poller { interests: HashMap::new() }, Waker))
        }

        pub(super) fn register(
            &mut self,
            _fd: i32,
            token: u64,
            r: bool,
            w: bool,
        ) -> io::Result<()> {
            self.interests.insert(token, (r, w));
            Ok(())
        }

        pub(super) fn modify(&mut self, _fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.interests.insert(token, (r, w));
            Ok(())
        }

        pub(super) fn deregister(&mut self, _fd: i32, token: u64) -> io::Result<()> {
            self.interests.remove(&token);
            Ok(())
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
            out.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            for (&token, &(r, w)) in &self.interests {
                if r || w {
                    out.push(Event { token, readable: r, writable: w });
                }
            }
        }
    }

    impl Waker {
        pub(super) fn wake(&self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Answers `200 {"ok":true}`, except on `/panic`, where it panics.
    #[derive(Default)]
    struct Panicky {
        panics: AtomicU64,
        stop: AtomicBool,
    }

    impl Service for Panicky {
        type Conn = ();

        fn connect(&self, _stream: &TcpStream) {}

        fn handle(&self, _conn: &mut (), req: &Request) -> (u16, String) {
            assert!(req.path != "/panic", "a handler bug, triggered on purpose");
            (200, r#"{"ok":true}"#.into())
        }

        fn disconnect(&self, _conn: ()) {}

        fn draining(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }

        fn note_panic(&self) {
            self.panics.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Send one `GET path` on a fresh connection and read until the
    /// server closes it.
    fn get_until_eof(addr: &str, path: &str, close: bool) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        let connection = if close { "close" } else { "keep-alive" };
        write!(stream, "GET {path} HTTP/1.1\r\nConnection: {connection}\r\n\r\n").expect("send");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("a reply, then EOF");
        text
    }

    /// Each of `workers + 1` panicking requests is answered 500
    /// `internal` and closed; the pool still serves afterwards.
    #[test]
    fn a_panicking_request_is_answered_500_and_its_worker_survives() {
        let workers = 2;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let service = Arc::new(Panicky::default());
        let cfg = ServerConfig {
            workers,
            poll_interval: Duration::from_millis(5),
            request_timeout: Duration::from_secs(10),
            max_body: 1024,
            max_idle: None,
        };
        let mut evloop = EventLoop::start(listener, "panicky", cfg, Arc::clone(&service)).unwrap();

        for _ in 0..=workers {
            // Keep-alive asked for, yet the reply closes the connection.
            let reply = get_until_eof(&addr, "/panic", false);
            assert!(reply.starts_with("HTTP/1.1 500 "), "{reply}");
            assert!(reply.contains("\r\nConnection: close\r\n"), "{reply}");
            let body = mhx_json::parse(reply.split("\r\n\r\n").nth(1).unwrap()).unwrap();
            let kind = body.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str());
            assert_eq!(kind, Some(wire::INTERNAL_KIND), "{reply}");
        }
        let reply = get_until_eof(&addr, "/fine", true);
        assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
        assert_eq!(service.panics.load(Ordering::SeqCst), workers as u64 + 1);

        service.stop.store(true, Ordering::SeqCst);
        evloop.shutdown();
    }
}
