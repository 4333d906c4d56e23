//! The service: a TCP listener, a connection thread per client, a
//! bounded admission queue, and a pool of executor threads driving
//! batches through `revet-runtime`.
//!
//! ```text
//!        clients (length-prefixed frames, protocol.rs)
//!           │ Compile / Execute / Status / Shutdown
//!           ▼
//!   accept loop ──► connection threads (decode, validate, reply)
//!                     │ Compile → ProgramCache (single-flight, LRU)
//!                     │ Execute → AdmissionQueue::try_submit
//!                     │            │  Full → Busy error (backpressure)
//!                     ▼            ▼
//!                  typed error  executor threads × E
//!                  frames         └─ BatchRunner::run over the job's
//!                                    argsets (worker pool × B)
//! ```
//!
//! **Backpressure** is explicit: the admission queue is bounded, and a
//! full queue answers `Busy` immediately instead of accepting unbounded
//! work. **Graceful shutdown** flips one flag: the acceptor stops, new
//! submissions are refused with `ShuttingDown`, queued and running jobs
//! drain to completion, and every connection finishes writing its
//! in-flight replies before closing.

use crate::cache::ProgramCache;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, CloseReply, ErrorCode, ErrorFrame,
    ExecuteReply, ExecuteRequest, FrameError, InstanceOutcome, MetricsInfo, OpenStreamRequest,
    PollReply, Request, Response, StatusInfo, WireDiagnostic, WireError, WireReport, WireTok,
    MAX_FRAME_BYTES,
};
use crate::session::{SessionError, SessionTable};
use revet_core::{
    CompiledProgram, Compiler, CoreError, PassOptions, ProgramId, StreamExecutor, StreamInstance,
};
use revet_diag::{Severity, SourceMap};
use revet_obs::ObsSink;
use revet_runtime::{BatchJob, BatchRunner};
use revet_sltf::Word;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked accept/read loops re-check the draining flag.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Patience for the *rest* of a frame once its first byte has arrived.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Programs the content-addressed cache keeps resident.
    pub cache_capacity: usize,
    /// Execute jobs the admission queue holds before answering `Busy`.
    pub queue_capacity: usize,
    /// Executor threads pulling jobs off the admission queue.
    pub executor_threads: usize,
    /// Worker threads each executor's [`BatchRunner`] uses per job.
    pub batch_threads: usize,
    /// Per-instance round cap (livelock guard).
    pub max_rounds: u64,
    /// Streaming sessions resident at once before `OpenStream` answers
    /// `Busy`.
    pub session_capacity: usize,
    /// Idle deadline after which the sweeper evicts a streaming session
    /// (later touches answer `SessionExpired`).
    pub session_idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_capacity: 32,
            queue_capacity: 64,
            executor_threads: 2.min(hw),
            batch_threads: hw,
            max_rounds: revet_runtime::DEFAULT_MAX_ROUNDS,
            session_capacity: 32,
            session_idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Final counters returned by [`Server::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Instances completed successfully over the server's lifetime.
    pub executed_instances: u64,
    /// Instances that failed.
    pub failed_instances: u64,
    /// Cache hits over the lifetime.
    pub cache_hits: u64,
    /// Cache misses over the lifetime.
    pub cache_misses: u64,
    /// Cache evictions over the lifetime.
    pub cache_evictions: u64,
}

/// One accepted execute job: the resolved program, the request, and the
/// channel its connection thread is blocked on.
struct ExecJob {
    program: Arc<CompiledProgram>,
    req: ExecuteRequest,
    reply: mpsc::Sender<ExecuteReply>,
}

/// Refusals from [`AdmissionQueue::try_submit`].
enum SubmitError {
    /// Queue at capacity — the caller should answer `Busy`.
    Full,
    /// Drain has begun — the caller should answer `ShuttingDown`.
    Closed,
}

/// Bounded MPMC job queue with an explicit closed state.
struct AdmissionQueue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    available: Condvar,
}

struct QueueInner {
    jobs: VecDeque<ExecJob>,
    closed: bool,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Admission control: accepts the job or refuses *now* — it never
    /// blocks the connection thread behind other clients' work.
    fn try_submit(&self, job: ExecJob) -> Result<(), SubmitError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        inner.jobs.push_back(job);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed *and* drained — the
    /// executor's signal to exit. Jobs queued before the close are still
    /// handed out (drain, don't drop).
    fn pop(&self) -> Option<ExecJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).unwrap();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}

/// State shared by the acceptor, connection threads, and executors.
struct Shared {
    cfg: ServeConfig,
    cache: ProgramCache,
    queue: AdmissionQueue,
    sessions: SessionTable,
    draining: AtomicBool,
    inflight_jobs: AtomicU64,
    executed_instances: AtomicU64,
    failed_instances: AtomicU64,
    connections: Mutex<Vec<JoinHandle<()>>>,
    /// Lifetime execution counters (no trace ring — counters are cheap
    /// and lock-free, a ring shared by every batch would not be). Every
    /// executor's `BatchRunner` records into this sink; the `Metrics`
    /// request dumps it.
    obs: ObsSink,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Idempotent: flips the drain flag, closes the queue, and drops
    /// every resident streaming session. Everything else (acceptor exit,
    /// executor exit, connection exit) follows from those.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        self.sessions.drain();
    }

    fn status(&self) -> StatusInfo {
        let cache = self.cache.stats();
        StatusInfo {
            programs_cached: cache.resident,
            cache_capacity: self.cache.capacity() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            queued_jobs: self.queue.len() as u64,
            inflight_jobs: self.inflight_jobs.load(Ordering::SeqCst),
            executed_instances: self.executed_instances.load(Ordering::SeqCst),
            failed_instances: self.failed_instances.load(Ordering::SeqCst),
            open_sessions: self.sessions.open_count(),
            evicted_sessions: self.sessions.evicted_total(),
            session_resident_bytes: self.sessions.resident_bytes(),
            draining: self.draining(),
        }
    }

    /// The `Metrics` payload: execution counters from the shared obs sink
    /// plus serve-level counters (cache, instance totals, the resident
    /// programs' DRAM image pools), with a status snapshot taken at the
    /// same instant.
    fn metrics(&self) -> MetricsInfo {
        let status = self.status();
        let pool = self.cache.dram_pool_stats();
        let mut counters = self.obs.snapshot_counters();
        counters.extend([
            ("serve.dram_pool.hits".to_string(), pool.hits),
            ("serve.dram_pool.misses".to_string(), pool.misses),
            (
                "serve.dram_pool.retained_bytes".to_string(),
                pool.retained_bytes,
            ),
            ("serve.cache.hits".to_string(), status.cache_hits),
            ("serve.cache.misses".to_string(), status.cache_misses),
            ("serve.cache.evictions".to_string(), status.cache_evictions),
            ("serve.cache.resident".to_string(), status.programs_cached),
            (
                "serve.executed_instances".to_string(),
                status.executed_instances,
            ),
            (
                "serve.failed_instances".to_string(),
                status.failed_instances,
            ),
            ("serve.sessions.open".to_string(), status.open_sessions),
            (
                "serve.sessions.evicted".to_string(),
                status.evicted_sessions,
            ),
            (
                "serve.sessions.resident_bytes".to_string(),
                status.session_resident_bytes,
            ),
        ]);
        counters.sort();
        MetricsInfo { counters, status }
    }
}

/// A running compile-and-execute service. Dropping the handle does *not*
/// stop the server; call [`Server::shutdown`] for a graceful drain.
#[derive(Debug)]
pub struct Server {
    shared: Arc<SharedOpaque>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    executors: Vec<JoinHandle<()>>,
    sweeper: JoinHandle<()>,
}

/// Newtype so `Server`'s Debug doesn't try to render the whole state.
struct SharedOpaque(Shared);

impl std::fmt::Debug for SharedOpaque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `cfg.addr`, spawns the acceptor and executor pool, and
    /// returns a handle. The server is accepting requests on return.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let executor_threads = cfg.executor_threads.max(1);
        let shared = Arc::new(SharedOpaque(Shared {
            cache: ProgramCache::new(cfg.cache_capacity),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            sessions: SessionTable::new(cfg.session_capacity, cfg.session_idle_timeout),
            draining: AtomicBool::new(false),
            inflight_jobs: AtomicU64::new(0),
            executed_instances: AtomicU64::new(0),
            failed_instances: AtomicU64::new(0),
            connections: Mutex::new(Vec::new()),
            obs: ObsSink::counters_only(),
            cfg,
        }));
        let executors = (0..executor_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared.0))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        // The idle sweeper: evicts streaming sessions past their idle
        // deadline until drain begins.
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.0.draining() {
                    std::thread::sleep(IDLE_POLL);
                    shared.0.sessions.sweep(Instant::now());
                }
            })
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor,
            executors,
            sweeper,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the live counters (same data as the `Status` request).
    pub fn status(&self) -> StatusInfo {
        self.shared.0.status()
    }

    /// Graceful shutdown: stop accepting, refuse new work, drain queued
    /// and in-flight jobs, deliver every outstanding reply, then join all
    /// threads. Idempotent with a wire-level `Shutdown` request — either
    /// side may initiate; this call always completes the join.
    pub fn shutdown(self) -> ServerStats {
        let shared = &self.shared.0;
        shared.begin_drain();
        // Acceptor first (no new connections), then executors (drain the
        // queue, delivering replies connection threads are blocked on),
        // then the connections themselves.
        let _ = self.acceptor.join();
        let _ = self.sweeper.join();
        for h in self.executors {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *shared.connections.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        let cache = shared.cache.stats();
        ServerStats {
            executed_instances: shared.executed_instances.load(Ordering::SeqCst),
            failed_instances: shared.failed_instances.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }
}

/// Accepts until drain; one thread per connection.
fn accept_loop(listener: TcpListener, shared: &Arc<SharedOpaque>) {
    while !shared.0.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let per_conn = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    // Connection failures affect that client only.
                    let _ = handle_connection(stream, &per_conn.0);
                });
                let mut connections = shared.0.connections.lock().unwrap();
                // Reap finished connections so a long-lived server doesn't
                // accumulate one JoinHandle per connection ever served
                // (joining a finished thread does not block).
                for done in connections.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                connections.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
            }
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

/// Waits for a frame, polling the drain flag while idle. `None` means
/// "close this connection" (peer EOF, or drain while idle).
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> Option<Result<Vec<u8>, FrameError>> {
    loop {
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return None,
            Ok(_) => {
                // First byte is here; allow the peer FRAME_TIMEOUT to
                // deliver the rest so a short idle-poll window can't
                // split a frame mid-read (which would desync framing).
                let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
                let frame = read_frame(stream);
                let _ = stream.set_read_timeout(Some(IDLE_POLL));
                return Some(frame);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Some(Err(FrameError::Io(e))),
        }
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    write_frame(stream, &encode_response(resp))
}

fn send_error(
    stream: &mut TcpStream,
    code: ErrorCode,
    message: impl Into<String>,
) -> io::Result<()> {
    send(stream, &Response::Error(ErrorFrame::new(code, message)))
}

/// Serves one client until EOF, fatal transport error, or idle drain.
fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // On some platforms (Windows) accepted sockets inherit the listener's
    // nonblocking mode; this loop is written against blocking reads with
    // timeouts, so force that explicitly.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_POLL))?;
    while let Some(frame) = next_frame(&mut stream, shared) {
        let body = match frame {
            Ok(body) => body,
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e @ FrameError::TooLarge(_)) | Err(e @ FrameError::TooShort(_)) => {
                // The typed reply still goes out, but the stream position
                // is no longer frame-aligned, so this connection is done.
                let code = match e {
                    FrameError::TooLarge(_) => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::Malformed,
                };
                send_error(&mut stream, code, e.to_string())?;
                break;
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        // Body-level failures are recoverable: framing is intact, so
        // reply with a typed error and keep serving this client.
        let request = match decode_request(&body) {
            Ok(request) => request,
            Err(e @ WireError::UnsupportedVersion(_)) => {
                send_error(&mut stream, ErrorCode::UnsupportedVersion, e.to_string())?;
                continue;
            }
            Err(e) => {
                send_error(&mut stream, ErrorCode::Malformed, e.to_string())?;
                continue;
            }
        };
        match request {
            Request::Status => send(&mut stream, &Response::Status(shared.status()))?,
            Request::Metrics => send(&mut stream, &Response::Metrics(shared.metrics()))?,
            Request::Shutdown => {
                send(&mut stream, &Response::ShutdownAck)?;
                shared.begin_drain();
            }
            Request::Compile { source, options } => {
                handle_compile(&mut stream, shared, &source, options)?
            }
            Request::Execute(req) => handle_execute(&mut stream, shared, req)?,
            Request::OpenStream(req) => handle_open_stream(&mut stream, shared, req)?,
            Request::Feed { session, argsets } => {
                handle_feed(&mut stream, shared, session, &argsets)?
            }
            Request::Poll { session } => handle_poll(&mut stream, shared, session)?,
            Request::CloseStream { session } => handle_close_stream(&mut stream, shared, session)?,
        }
    }
    Ok(())
}

fn handle_compile(
    stream: &mut TcpStream,
    shared: &Shared,
    source: &str,
    options: PassOptions,
) -> io::Result<()> {
    if shared.draining() {
        return send_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }
    let id = ProgramId::of(source, &options);
    let start = Instant::now();
    let compiler = Compiler::new(options);
    match shared
        .cache
        .get_or_compile(id, || compiler.compile_source(source))
    {
        Ok((_, cached)) => send(
            stream,
            &Response::Compiled {
                program_id: id,
                cached,
                compile_micros: if cached {
                    0
                } else {
                    start.elapsed().as_micros() as u64
                },
            },
        ),
        Err(e) => send(stream, &Response::Error(compile_failed_frame(source, &e))),
    }
}

/// Builds the structured `CompileFailed` reply: the full rendered report
/// as the message, plus one [`WireDiagnostic`] per compiler diagnostic
/// with line/col pre-resolved against the submitted source.
fn compile_failed_frame(source: &str, e: &CoreError) -> ErrorFrame {
    let map = SourceMap::new(source);
    let details = e
        .diagnostics
        .iter()
        .map(|d| {
            let (line, col) = d.span.map_or((0, 0), |s| {
                let lc = map.line_col(s.start);
                (lc.line, lc.col)
            });
            WireDiagnostic {
                code: d.code.to_string(),
                severity: match d.severity {
                    Severity::Error => WireDiagnostic::SEVERITY_ERROR,
                    Severity::Warning => WireDiagnostic::SEVERITY_WARNING,
                    Severity::Note => WireDiagnostic::SEVERITY_NOTE,
                },
                line,
                col,
                message: d.message.clone(),
            }
        })
        .collect();
    ErrorFrame::new(ErrorCode::CompileFailed, e.render(source, false)).with_details(details)
}

/// Validates a window + DRAM overlays against a program's actual memory
/// shape, so execution paths only ever see runnable inputs. Returns the
/// `BadRequest` message on refusal.
fn check_memory_args(
    program: &CompiledProgram,
    window: (u64, u64),
    dram_inits: &[(u64, Vec<u8>)],
) -> Result<(), String> {
    let dram_len = program.graph.mem.dram.len() as u64;
    let (w_off, w_len) = window;
    if w_off.checked_add(w_len).is_none_or(|end| end > dram_len) {
        return Err(format!(
            "window [{w_off}, {w_off}+{w_len}) exceeds the {dram_len}-byte DRAM image"
        ));
    }
    for (off, bytes) in dram_inits {
        if off
            .checked_add(bytes.len() as u64)
            .is_none_or(|end| end > dram_len)
        {
            return Err(format!(
                "dram init [{off}, {off}+{}) exceeds the {dram_len}-byte DRAM image",
                bytes.len()
            ));
        }
    }
    Ok(())
}

fn handle_execute(stream: &mut TcpStream, shared: &Shared, req: ExecuteRequest) -> io::Result<()> {
    if shared.draining() {
        return send_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }
    let Some(program) = shared.cache.get(req.program_id) else {
        return send_error(
            stream,
            ErrorCode::UnknownProgram,
            format!("no cached program {} — compile it first", req.program_id),
        );
    };
    if let Err(msg) = check_memory_args(&program, req.window, &req.dram_inits) {
        return send_error(stream, ErrorCode::BadRequest, msg);
    }
    let w_len = req.window.1;
    // The reply must fit one frame; refuse rather than fail mid-write.
    let reply_bound = 64 + req.argsets.len() as u64 * (32 + w_len);
    if reply_bound > MAX_FRAME_BYTES as u64 {
        return send_error(
            stream,
            ErrorCode::BadRequest,
            format!(
                "reply would be ~{reply_bound} bytes ({} instances × {w_len}-byte window), \
                 over the {MAX_FRAME_BYTES}-byte frame cap",
                req.argsets.len()
            ),
        );
    }
    let (tx, rx) = mpsc::channel();
    match shared.queue.try_submit(ExecJob {
        program,
        req,
        reply: tx,
    }) {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            return send_error(
                stream,
                ErrorCode::Busy,
                format!("admission queue full ({} jobs)", shared.cfg.queue_capacity),
            )
        }
        Err(SubmitError::Closed) => {
            return send_error(stream, ErrorCode::ShuttingDown, "server is draining")
        }
    }
    match rx.recv() {
        Ok(reply) => send(stream, &Response::Executed(reply)),
        // Executor dropped the sender without replying — only possible if
        // an executor thread died; surface it instead of hanging.
        Err(_) => send_error(stream, ErrorCode::ShuttingDown, "executor unavailable"),
    }
}

/// Maps a session-table refusal onto its wire error code.
fn session_error(e: SessionError) -> (ErrorCode, &'static str) {
    match e {
        SessionError::Busy => (
            ErrorCode::Busy,
            "session table full — close a session and retry",
        ),
        SessionError::Unknown => (
            ErrorCode::UnknownSession,
            "unknown session id (never issued, or already closed)",
        ),
        SessionError::Expired => (
            ErrorCode::SessionExpired,
            "session evicted by the idle sweeper — reopen and refeed",
        ),
    }
}

fn handle_open_stream(
    stream: &mut TcpStream,
    shared: &Shared,
    req: OpenStreamRequest,
) -> io::Result<()> {
    if shared.draining() {
        return send_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }
    let Some(program) = shared.cache.get(req.program_id) else {
        return send_error(
            stream,
            ErrorCode::UnknownProgram,
            format!("no cached program {} — compile it first", req.program_id),
        );
    };
    if let Err(msg) = check_memory_args(&program, req.window, &req.dram_inits) {
        return send_error(stream, ErrorCode::BadRequest, msg);
    }
    let mut instance = program.instance();
    for (off, bytes) in &req.dram_inits {
        // `check_memory_args` already refused anything out of range; if
        // the two ever drift the client gets an error, not a dead
        // connection thread.
        if let Err(e) = instance.graph.mem.write_dram(*off as usize, bytes) {
            return send_error(stream, ErrorCode::BadRequest, e.to_string());
        }
    }
    match shared.sessions.open(
        StreamInstance::new(instance, StreamExecutor::Planned),
        req.window,
    ) {
        Ok(session) => send(stream, &Response::StreamOpened { session }),
        Err(e) => {
            let (code, msg) = session_error(e);
            send_error(stream, code, msg)
        }
    }
}

fn handle_feed(
    stream: &mut TcpStream,
    shared: &Shared,
    session: u64,
    argsets: &[Vec<u32>],
) -> io::Result<()> {
    if shared.draining() {
        return send_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }
    let sets: Vec<Vec<Word>> = argsets
        .iter()
        .map(|args| args.iter().map(|&a| Word(a)).collect())
        .collect();
    match shared.sessions.with(session, |s| s.stream.feed(&sets)) {
        Ok(Ok(accepted)) => send(
            stream,
            &Response::Fed {
                accepted: accepted as u64,
            },
        ),
        Ok(Err(e)) => send_error(stream, ErrorCode::BadRequest, e.to_string()),
        Err(e) => {
            let (code, msg) = session_error(e);
            send_error(stream, code, msg)
        }
    }
}

fn handle_poll(stream: &mut TcpStream, shared: &Shared, session: u64) -> io::Result<()> {
    if shared.draining() {
        return send_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }
    let max_rounds = shared.cfg.max_rounds;
    let polled = shared.sessions.with(session, |s| {
        let run = s.stream.poll_obs(max_rounds, &shared.obs);
        (run, s.stream.resident_bytes())
    });
    match polled {
        Ok((Ok((tokens, status)), resident_bytes)) => send(
            stream,
            &Response::Polled(PollReply {
                tokens: tokens.iter().map(WireTok::from_ttok).collect(),
                finished: status == revet_machine::RunStatus::Finished,
                resident_bytes,
            }),
        ),
        Ok((Err(e), _)) => {
            // A machine error poisons the session; release its residency.
            let _ = shared.sessions.close(session);
            send_error(stream, ErrorCode::BadRequest, e.to_string())
        }
        Err(e) => {
            let (code, msg) = session_error(e);
            send_error(stream, code, msg)
        }
    }
}

fn handle_close_stream(stream: &mut TcpStream, shared: &Shared, session: u64) -> io::Result<()> {
    // Unlike the other streaming verbs, close works during a drain: it
    // only *releases* residency (the table may already have dropped the
    // session, in which case the client gets UnknownSession).
    let slot = match shared.sessions.close(session) {
        Ok(slot) => slot,
        Err(e) => {
            let (code, msg) = session_error(e);
            return send_error(stream, code, msg);
        }
    };
    let max_rounds = shared.cfg.max_rounds;
    let mut stream_inst = slot.stream;
    // Final poll first, so the close reply carries the tail of the sink
    // stream the client hasn't seen; finish() then just verifies a clean
    // drain and hands over the memory image.
    let tail = match stream_inst.poll_obs(max_rounds, &shared.obs) {
        Ok((tokens, _)) => tokens,
        Err(e) => return send_error(stream, ErrorCode::BadRequest, e.to_string()),
    };
    match stream_inst.finish(max_rounds) {
        Ok(outcome) => {
            let (w_off, w_len) = (slot.window.0 as usize, slot.window.1 as usize);
            shared.executed_instances.fetch_add(1, Ordering::SeqCst);
            send(
                stream,
                &Response::StreamClosed(CloseReply {
                    merged: WireReport {
                        rounds: outcome.report.rounds,
                        productive_steps: outcome.report.productive_steps,
                        steps: outcome.report.steps,
                        peak_ready: outcome.report.peak_ready,
                    },
                    tokens: tail.iter().map(WireTok::from_ttok).collect(),
                    dram: outcome.memory.dram[w_off..w_off + w_len].to_vec(),
                }),
            )
        }
        Err(e) => {
            shared.failed_instances.fetch_add(1, Ordering::SeqCst);
            send_error(stream, ErrorCode::BadRequest, e.to_string())
        }
    }
}

/// One executor: pull a job, run its batch, deliver the reply. Exits when
/// the queue is closed and drained.
fn executor_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.inflight_jobs.fetch_add(1, Ordering::SeqCst);
        let ExecJob {
            program,
            req,
            reply,
        } = job;
        let outcome = run_job(shared, &program, req);
        shared.inflight_jobs.fetch_sub(1, Ordering::SeqCst);
        // A vanished client is not an executor error.
        let _ = reply.send(outcome);
    }
}

fn run_job(shared: &Shared, program: &CompiledProgram, req: ExecuteRequest) -> ExecuteReply {
    // One shared overlay set for the whole batch: every instance applies
    // the same request inputs, and the job owns its request, so the bytes
    // are moved into the set, never copied.
    let dram_inits: Arc<[(usize, Vec<u8>)]> = req
        .dram_inits
        .into_iter()
        .map(|(off, bytes)| (off as usize, bytes))
        .collect();
    let jobs: Vec<BatchJob<'_>> = req
        .argsets
        .iter()
        .map(|args| {
            BatchJob::new(program, args.iter().map(|&a| Word(a)).collect())
                .with_dram_inits(Arc::clone(&dram_inits))
        })
        .collect();
    let report = BatchRunner::new(shared.cfg.batch_threads)
        .with_max_rounds(shared.cfg.max_rounds)
        .run_obs(&jobs, &shared.obs);
    let (w_off, w_len) = (req.window.0 as usize, req.window.1 as usize);
    let merged = report.total();
    let instances: Vec<InstanceOutcome> = report
        .results
        .iter()
        .map(|r| match r {
            Ok(inst) => InstanceOutcome::Ok {
                wall_micros: inst.wall.as_micros() as u64,
                dram: inst.mem.dram[w_off..w_off + w_len].to_vec(),
            },
            Err(e) => InstanceOutcome::Err {
                message: e.to_string(),
            },
        })
        .collect();
    let ok = report.ok_count() as u64;
    shared.executed_instances.fetch_add(ok, Ordering::SeqCst);
    shared
        .failed_instances
        .fetch_add(instances.len() as u64 - ok, Ordering::SeqCst);
    ExecuteReply {
        merged: WireReport {
            rounds: merged.rounds,
            productive_steps: merged.productive_steps,
            steps: merged.steps,
            peak_ready: merged.peak_ready,
        },
        instances,
    }
}
