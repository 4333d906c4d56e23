//! The service: a TCP listener and a thread per client connection. Every
//! request runs on its client's connection thread; `Execute` first passes
//! an admission gate that bounds how many batches run and wait at once.
//!
//! ```text
//!        clients (length-prefixed frames, protocol.rs)
//!           │ Compile / Execute / Status / Shutdown / streaming verbs
//!           ▼
//!   accept loop ──► connection threads: read → decode → respond() → one send
//!                     │ Compile → ProgramCache (single-flight, LRU)
//!                     │ Execute → Gate::enter
//!                     │            │  Full → Busy error (backpressure)
//!                     ▼            ▼
//!                  typed error  run slot × E (waiters start in arrival order)
//!                  frames         └─ BatchRunner::run over the job's
//!                                    argsets (worker pool × B)
//!                     │ OpenStream / Feed / Poll / CloseStream
//!                     ▼
//!                  SessionTable (idle sessions expire at its next use)
//! ```
//!
//! **Backpressure** is explicit: the gate lets `executor_threads` jobs
//! run and `queue_capacity` more wait, and answers `Busy` immediately past
//! that instead of accepting unbounded work. **Graceful shutdown** flips
//! one flag: the acceptor stops, new submissions are refused with
//! `ShuttingDown`, admitted jobs run to completion, and every connection
//! finishes writing its in-flight replies before closing.
//!
//! **The wire path** allocates nothing per frame: each connection reads
//! requests through a [`FrameReader`] and encodes replies into a buffer it
//! keeps, so a request that has arrived whole is one `read` and its reply
//! one `writev`.

use crate::cache::ProgramCache;
use crate::protocol::{
    decode_request, encode_into, trim_kept, write_frame, CloseReply, ErrorCode, ErrorFrame,
    ExecuteReply, ExecuteRequest, FrameError, FrameReader, InstanceOutcome, MetricsInfo,
    OpenStreamRequest, PollReply, Request, Response, StatusInfo, WireDiagnostic, WireError,
    WireReport, WireTok, MAX_FRAME_BYTES,
};
use crate::session::{SessionError, SessionTable};
use revet_core::{
    CompiledProgram, CoreError, PassOptions, ProgramId, Session, StreamExecutor, StreamInstance,
};
use revet_diag::{Severity, SourceMap};
use revet_machine::{ExecReport, MachineError, MemoryState, RunStatus};
use revet_runtime::{BatchJob, BatchRunner};
use revet_sltf::Word;
use std::fmt;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle connection's read wakes to re-check the draining
/// flag; the read timeout every connection sets once.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Patience for the *rest* of a frame once its first byte has arrived,
/// measured by the clock across the idle polls it spans.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// How long [`Shared::begin_drain`]'s wake-up connection may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Programs the content-addressed cache keeps resident.
    pub cache_capacity: usize,
    /// Execute jobs that wait for a run slot before `Execute` answers
    /// `Busy`.
    pub queue_capacity: usize,
    /// Execute jobs that run at once, each on its client's connection
    /// thread.
    pub executor_threads: usize,
    /// Worker threads each Execute job's [`BatchRunner`] uses.
    pub batch_threads: usize,
    /// Per-instance round cap (livelock guard).
    pub max_rounds: u64,
    /// Streaming sessions resident at once before `OpenStream` answers
    /// `Busy`.
    pub session_capacity: usize,
    /// Idle deadline past which a streaming session is evicted at the
    /// session table's next use (later touches answer `SessionExpired`).
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

/// Why [`Gate::enter`] refused a job.
#[derive(Debug, PartialEq, Eq)]
enum Refusal {
    /// Every run slot is busy and the wait line is full — answer `Busy`.
    Full,
    /// Drain has begun — answer `ShuttingDown`.
    Closed,
}

/// Admission for `Execute`: at most `slots` jobs run at once, and at most
/// `capacity` more wait for a slot. Each waiter holds a ticket, and a freed
/// slot goes to the lowest ticket, so jobs start in arrival order.
struct Gate {
    slots: usize,
    capacity: usize,
    state: Mutex<GateState>,
    turn: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    /// The ticket the next arrival takes.
    next: u64,
    /// The ticket that starts next; `next - serving` jobs wait.
    serving: u64,
    closed: bool,
}

/// A held run slot. Dropping it, also while unwinding, frees the slot.
struct RunSlot<'g>(&'g Gate);

impl Gate {
    fn new(slots: usize, capacity: usize) -> Self {
        Gate {
            slots: slots.max(1),
            capacity: capacity.max(1),
            state: Mutex::new(GateState::default()),
            turn: Condvar::new(),
        }
    }

    /// Takes a run slot, waiting behind every earlier arrival if none is
    /// free. Refuses at once when the wait line is full or drain has
    /// begun; a job admitted before the drain still runs.
    fn enter(&self) -> Result<RunSlot<'_>, Refusal> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(Refusal::Closed);
        }
        if state.next - state.serving >= self.capacity as u64 {
            return Err(Refusal::Full);
        }
        let ticket = state.next;
        state.next += 1;
        let mut state = self
            .turn
            .wait_while(state, |s| s.serving != ticket || s.running >= self.slots)
            .unwrap();
        state.serving += 1;
        state.running += 1;
        drop(state);
        // The next ticket may fit in another free slot.
        self.turn.notify_all();
        Ok(RunSlot(self))
    }

    /// Refuses every later arrival.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
    }

    /// `(running, waiting)` jobs.
    fn load(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap();
        (state.running, (state.next - state.serving) as usize)
    }
}

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        // This also runs while unwinding, where a second panic aborts; the
        // state is valid after every update, so a poisoned lock is used
        // as is.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.running -= 1;
        drop(state);
        self.0.turn.notify_all();
    }
}

/// State shared by the acceptor and the connection threads.
struct Shared {
    cfg: ServeConfig,
    cache: ProgramCache,
    gate: Gate,
    sessions: SessionTable,
    draining: AtomicBool,
    /// Where the listener can be reached from this host: the accept loop
    /// blocks, and a connection here wakes it to see the drain flag.
    wake: SocketAddr,
    executed_instances: AtomicU64,
    failed_instances: AtomicU64,
    connections: Mutex<Vec<JoinHandle<()>>>,
    /// Lifetime execution counters: the merge of every report a reply
    /// carried — each Execute batch's total and each closed session's —
    /// taken once per request. The `Metrics` request reads it.
    executed: Mutex<ExecReport>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Idempotent: flips the drain flag, closes the gate, drops every
    /// resident streaming session, and wakes the blocked acceptor with a
    /// connection of its own. Everything else (acceptor exit, connection
    /// exit) follows from those.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.gate.close();
        self.sessions.drain();
        // Refused once the acceptor has exited and dropped the listener.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }

    fn status(&self) -> StatusInfo {
        let cache = self.cache.stats();
        let (running, waiting) = self.gate.load();
        StatusInfo {
            programs_cached: cache.resident,
            cache_capacity: self.cache.capacity() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            queued_jobs: waiting as u64,
            inflight_jobs: running as u64,
            executed_instances: self.executed_instances.load(Ordering::SeqCst),
            failed_instances: self.failed_instances.load(Ordering::SeqCst),
            open_sessions: self.sessions.open_count(),
            evicted_sessions: self.sessions.evicted_total(),
            session_resident_bytes: self.sessions.resident_bytes(),
            draining: self.draining(),
        }
    }

    /// Folds a reply's execution report into the lifetime counters.
    fn count(&self, report: &ExecReport) {
        self.executed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(report);
    }

    /// The `Metrics` payload: the merged execution reports plus the
    /// resident programs' DRAM image and channel-table pool counters, with
    /// a status snapshot (cache, instance and session totals) taken at the
    /// same instant.
    fn metrics(&self) -> MetricsInfo {
        let status = self.status();
        let exec = *self.executed.lock().unwrap_or_else(PoisonError::into_inner);
        let mut counters = vec![
            ("exec.dispatches".to_string(), exec.steps),
            ("exec.productive".to_string(), exec.productive_steps),
            ("exec.rounds".to_string(), exec.rounds),
            ("exec.peak_ready".to_string(), exec.peak_ready),
        ];
        for (name, pool) in [
            ("dram_pool", self.cache.dram_pool_stats()),
            ("chan_pool", self.cache.chan_pool_stats()),
        ] {
            counters.extend([
                (format!("serve.{name}.hits"), pool.hits),
                (format!("serve.{name}.misses"), pool.misses),
                (format!("serve.{name}.retained_bytes"), pool.retained_bytes),
            ]);
        }
        counters.sort();
        MetricsInfo { counters, status }
    }
}

/// A running compile-and-execute service. Dropping the handle does *not*
/// stop the server; call [`Server::shutdown`] for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `cfg.addr`, spawns the acceptor, and returns a handle. The
    /// server is accepting requests on return.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let mut wake = local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            cache: ProgramCache::new(cfg.cache_capacity),
            gate: Gate::new(cfg.executor_threads, cfg.queue_capacity),
            sessions: SessionTable::new(cfg.session_capacity, cfg.session_idle_timeout),
            draining: AtomicBool::new(false),
            wake,
            executed_instances: AtomicU64::new(0),
            failed_instances: AtomicU64::new(0),
            connections: Mutex::new(Vec::new()),
            executed: Mutex::new(ExecReport::default()),
            cfg,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the live counters (same data as the `Status` request).
    pub fn status(&self) -> StatusInfo {
        self.shared.status()
    }

    /// Graceful shutdown: stop accepting, refuse new work, let admitted
    /// jobs finish, deliver every outstanding reply, then join all
    /// threads and return the final counters. Idempotent with a
    /// wire-level `Shutdown` request — either side may initiate; this
    /// call always completes the join.
    pub fn shutdown(self) -> StatusInfo {
        let shared = &self.shared;
        shared.begin_drain();
        // Acceptor first (no new connections), then the connections,
        // each of which finishes its admitted job and reply first.
        let _ = self.acceptor.join();
        let handles = std::mem::take(&mut *shared.connections.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        shared.status()
    }
}

/// Accepts until drain; one thread per connection. `accept` blocks, so a
/// new connection is served at once; [`Shared::begin_drain`] wakes it.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let per_conn = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    // Connection failures affect that client only.
                    let _ = handle_connection(stream, &per_conn);
                });
                let mut connections = shared.connections.lock().unwrap();
                // Reap finished connections so a long-lived server doesn't
                // accumulate one JoinHandle per connection ever served
                // (joining a finished thread does not block).
                for done in connections.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                connections.push(handle);
            }
            // Out of descriptors or the like: back off rather than spin.
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

/// The one place a reply is encoded and written, into the connection's
/// kept buffer `body`. A reply that outgrew the frame cap (a poll or close
/// delivering very much output) goes out as a typed `FrameTooLarge` error
/// rather than as a write failure that would drop the connection.
fn send(w: &mut impl Write, resp: &Response, body: &mut Vec<u8>) -> io::Result<()> {
    encode_into(resp, body);
    if body.len() > MAX_FRAME_BYTES as usize {
        // The error frame is a few dozen bytes: this recurses once.
        let message = format!(
            "reply of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
            body.len()
        );
        return send(
            w,
            &Response::Error(ErrorFrame::new(ErrorCode::FrameTooLarge, message)),
            body,
        );
    }
    let sent = write_frame(w, body);
    trim_kept(body);
    sent
}

/// Serves one client until EOF, fatal transport error, or idle drain:
/// read, decode, [`respond`], one send. A request that has arrived whole
/// is one `read`, and its reply one `writev`.
fn handle_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut frames = FrameReader::new();
    let mut reply_body = Vec::new();
    loop {
        // An idle read times out every IDLE_POLL to check the drain flag;
        // a partly arrived frame is waited for until FRAME_TIMEOUT, so an
        // idle poll cannot split it. Either refusal closes the connection.
        let frame = frames.next_while(&mut stream, |since| match since {
            None => !shared.draining(),
            Some(first_byte) => first_byte.elapsed() < FRAME_TIMEOUT,
        });
        let (request, aligned) = match frame {
            // Body-level failures are recoverable: framing is intact, so
            // the typed error goes out and this client keeps being served.
            Ok(body) => (decode_request(body).map_err(malformed), true),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(FrameError::Io(e)) => return Err(e),
            // A refused length prefix still gets its typed reply, but the
            // stream position is no longer frame-aligned: last frame.
            Err(e) => {
                let code = match e {
                    FrameError::TooLarge(_) => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::Malformed,
                };
                (Err(ErrorFrame::new(code, e.to_string())), false)
            }
        };
        let shutdown = matches!(request, Ok(Request::Shutdown));
        let reply = match request {
            Ok(request) => respond(shared, request),
            Err(frame) => Response::Error(frame),
        };
        send(&mut stream, &reply, &mut reply_body)?;
        // The ack is on the wire before the drain flag can close this
        // connection.
        if shutdown {
            shared.begin_drain();
        }
        if !aligned {
            break;
        }
    }
    Ok(())
}

fn malformed(e: WireError) -> ErrorFrame {
    let code = match e {
        WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        _ => ErrorCode::Malformed,
    };
    ErrorFrame::new(code, e.to_string())
}

/// Answers one decoded request. Nothing from here down touches the socket.
fn respond(shared: &Shared, request: Request) -> Response {
    let answer = match request {
        Request::Status => Ok(Response::Status(shared.status())),
        Request::Metrics => Ok(Response::Metrics(shared.metrics())),
        Request::Shutdown => Ok(Response::ShutdownAck),
        // Close works during a drain: it only *releases* residency (the
        // table may already have dropped the session, in which case the
        // client gets UnknownSession). Every verb below it starts work.
        Request::CloseStream { session } => close_stream(shared, session),
        _ if shared.draining() => Err(shutting_down("server is draining")),
        Request::Compile { source, options } => compile(shared, &source, options),
        Request::Execute(req) => execute(shared, req),
        Request::OpenStream(req) => open_stream(shared, req),
        Request::Feed { session, argsets } => feed(shared, session, &argsets),
        Request::Poll { session } => poll(shared, session),
    };
    answer.unwrap_or_else(Response::Error)
}

fn shutting_down(why: &str) -> ErrorFrame {
    ErrorFrame::new(ErrorCode::ShuttingDown, why)
}

/// A request that was well-formed but cannot run; the machine's or the
/// validator's own message says why.
fn bad_request(why: impl ToString) -> ErrorFrame {
    ErrorFrame::new(ErrorCode::BadRequest, why.to_string())
}

impl From<SessionError> for ErrorFrame {
    fn from(e: SessionError) -> Self {
        let (code, message) = match e {
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
                "session evicted after sitting idle — reopen and refeed",
            ),
        };
        ErrorFrame::new(code, message)
    }
}

fn compile(shared: &Shared, source: &str, options: PassOptions) -> Result<Response, ErrorFrame> {
    let program_id = ProgramId::of(source, &options);
    let start = Instant::now();
    let (_, cached) = shared
        .cache
        .get_or_compile(program_id, || Session::new(source, options).to_dataflow())
        .map_err(|e| compile_failed_frame(source, &e))?;
    Ok(Response::Compiled {
        program_id,
        cached,
        compile_micros: if cached {
            0
        } else {
            start.elapsed().as_micros() as u64
        },
    })
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

/// The one program lookup: resolves `program_id` and validates the window
/// and DRAM overlays against that program's actual memory shape, so
/// execution paths only ever see runnable inputs.
fn runnable_program(
    shared: &Shared,
    program_id: ProgramId,
    window: (u64, u64),
    dram_inits: &[(u64, Vec<u8>)],
) -> Result<Arc<CompiledProgram>, ErrorFrame> {
    let program = shared.cache.get(program_id).ok_or_else(|| {
        ErrorFrame::new(
            ErrorCode::UnknownProgram,
            format!("no cached program {program_id} — compile it first"),
        )
    })?;
    let dram_len = program.graph.mem.dram.len() as u64;
    let fits = |off: u64, len: u64| off.checked_add(len).is_some_and(|end| end <= dram_len);
    let (w_off, w_len) = window;
    if !fits(w_off, w_len) {
        return Err(bad_request(format!(
            "window [{w_off}, {w_off}+{w_len}) exceeds the {dram_len}-byte DRAM image"
        )));
    }
    for (off, bytes) in dram_inits {
        if !fits(*off, bytes.len() as u64) {
            return Err(bad_request(format!(
                "dram init [{off}, {off}+{}) exceeds the {dram_len}-byte DRAM image",
                bytes.len()
            )));
        }
    }
    Ok(program)
}

/// The one window cutter. `runnable_program` checked the window against
/// this image's length when the request was admitted.
fn cut_window(mem: &MemoryState, (off, len): (u64, u64)) -> Vec<u8> {
    mem.dram[off as usize..][..len as usize].to_vec()
}

fn words(args: &[u32]) -> Vec<Word> {
    args.iter().map(|&a| Word(a)).collect()
}

fn execute(shared: &Shared, req: ExecuteRequest) -> Result<Response, ErrorFrame> {
    let program = runnable_program(shared, req.program_id, req.window, &req.dram_inits)?;
    // The reply carries a DRAM window per instance and no output tokens.
    if program.graph.chans()[program.exit.0 as usize].arity() > 0 {
        return Err(bad_request(
            "`main` returns values and an Execute reply cannot carry them: \
             run it through OpenStream, Feed and Poll",
        ));
    }
    let w_len = req.window.1;
    // Refuse a reply that cannot fit one frame before running anything.
    let reply_bound = 64 + req.argsets.len() as u64 * (32 + w_len);
    if reply_bound > MAX_FRAME_BYTES as u64 {
        return Err(bad_request(format!(
            "reply would be ~{reply_bound} bytes ({} instances × {w_len}-byte window), \
             over the {MAX_FRAME_BYTES}-byte frame cap",
            req.argsets.len()
        )));
    }
    let _slot = shared.gate.enter().map_err(|e| match e {
        Refusal::Full => ErrorFrame::new(
            ErrorCode::Busy,
            format!("admission queue full ({} jobs)", shared.cfg.queue_capacity),
        ),
        Refusal::Closed => shutting_down("server is draining"),
    })?;
    Ok(Response::Executed(run_job(shared, &program, req)))
}

fn open_stream(shared: &Shared, req: OpenStreamRequest) -> Result<Response, ErrorFrame> {
    let program = runnable_program(shared, req.program_id, req.window, &req.dram_inits)?;
    let mut instance = program.instance();
    for (off, bytes) in &req.dram_inits {
        // `runnable_program` already refused anything out of range; if the
        // two ever drift the client gets an error, not a dead connection
        // thread.
        instance
            .graph
            .mem
            .write_dram(*off as usize, bytes)
            .map_err(bad_request)?;
    }
    let stream = StreamInstance::new(instance, StreamExecutor::Planned);
    let session = shared.sessions.open(stream, req.window)?;
    Ok(Response::StreamOpened { session })
}

fn feed(shared: &Shared, session: u64, argsets: &[Vec<u32>]) -> Result<Response, ErrorFrame> {
    let sets: Vec<Vec<Word>> = argsets.iter().map(|args| words(args)).collect();
    let accepted = shared
        .sessions
        .with(session, |s| s.stream.feed(&sets))?
        .map_err(bad_request)?;
    Ok(Response::Fed {
        accepted: accepted as u64,
    })
}

/// A machine error ends a streaming session: it counts as one failed
/// instance and the client gets the machine's message.
fn stream_failed(shared: &Shared, e: MachineError) -> ErrorFrame {
    shared.failed_instances.fetch_add(1, Ordering::SeqCst);
    bad_request(e)
}

fn poll(shared: &Shared, session: u64) -> Result<Response, ErrorFrame> {
    let max_rounds = shared.cfg.max_rounds;
    let (run, resident_bytes) = shared.sessions.with(session, |s| {
        let run = s.stream.poll(max_rounds);
        (run, s.stream.resident_bytes())
    })?;
    let (tokens, status) = run.map_err(|e| {
        // The error poisons the session; release its residency.
        let _ = shared.sessions.close(session);
        stream_failed(shared, e)
    })?;
    Ok(Response::Polled(PollReply {
        tokens: tokens.iter().map(WireTok::from_ttok).collect(),
        finished: status == RunStatus::Finished,
        resident_bytes,
    }))
}

fn close_stream(shared: &Shared, session: u64) -> Result<Response, ErrorFrame> {
    let slot = shared.sessions.close(session)?;
    let max_rounds = shared.cfg.max_rounds;
    // The final drain: its output is what no poll delivered, and a clean
    // drain hands over the memory image.
    let outcome = slot
        .stream
        .finish(max_rounds)
        .map_err(|e| stream_failed(shared, e))?;
    shared.count(&outcome.report);
    shared.executed_instances.fetch_add(1, Ordering::SeqCst);
    Ok(Response::StreamClosed(CloseReply {
        merged: WireReport::from(&outcome.report),
        tokens: outcome.tail.iter().map(WireTok::from_ttok).collect(),
        dram: cut_window(&outcome.memory, slot.window),
    }))
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
        .map(|args| BatchJob::new(program, words(args)).with_dram_inits(Arc::clone(&dram_inits)))
        .collect();
    let report = BatchRunner::new(shared.cfg.batch_threads)
        .with_max_rounds(shared.cfg.max_rounds)
        .run(&jobs);
    let instances: Vec<InstanceOutcome> = report
        .results
        .iter()
        .map(|r| match r {
            Ok(inst) => InstanceOutcome::Ok {
                wall_micros: inst.wall.as_micros() as u64,
                dram: cut_window(&inst.mem, req.window),
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
    let merged = report.total();
    shared.count(&merged);
    ExecuteReply {
        merged: WireReport::from(&merged),
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;

    /// Spins until the gate shows `load`: a waiter blocked in `enter` has
    /// taken its ticket once it counts as waiting.
    fn await_load(gate: &Gate, load: (usize, usize)) {
        while gate.load() != load {
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_gate_refuses_a_full_wait_line_and_a_closed_gate() {
        let gate = Gate::new(1, 1);
        std::thread::scope(|s| {
            let running = gate.enter().expect("a free slot");
            let waiter = s.spawn(|| drop(gate.enter().expect("room to wait")));
            await_load(&gate, (1, 1));
            assert_eq!(gate.enter().err(), Some(Refusal::Full));
            gate.close();
            assert_eq!(gate.enter().err(), Some(Refusal::Closed));
            drop(running);
            waiter.join().unwrap();
        });
        assert_eq!(gate.load(), (0, 0));
        assert_eq!(gate.enter().err(), Some(Refusal::Closed));
    }

    #[test]
    fn a_job_admitted_before_close_still_runs() {
        let gate = Gate::new(1, 4);
        let ran = AtomicBool::new(false);
        std::thread::scope(|s| {
            let running = gate.enter().expect("a free slot");
            s.spawn(|| {
                let _slot = gate.enter().expect("admitted before the close");
                ran.store(true, Ordering::SeqCst);
            });
            await_load(&gate, (1, 1));
            gate.close();
            drop(running);
        });
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn waiters_start_in_arrival_order() {
        let gate = Gate::new(1, 3);
        let started = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let running = gate.enter().expect("a free slot");
            for i in 0..3 {
                let (gate, started) = (&gate, &started);
                s.spawn(move || {
                    let _slot = gate.enter().expect("room to wait");
                    started.lock().unwrap().push(i);
                });
                await_load(gate, (1, i + 1));
            }
            drop(running);
        });
        assert_eq!(*started.lock().unwrap(), [0, 1, 2]);
    }

    #[test]
    fn a_panic_while_holding_a_slot_frees_it() {
        let gate = Gate::new(1, 1);
        let unwound = std::panic::catch_unwind(|| {
            let _slot = gate.enter().expect("a free slot");
            panic!("a job panicked");
        });
        assert!(unwound.is_err());
        assert_eq!(gate.load(), (0, 0));
        assert!(gate.enter().is_ok());
    }

    #[test]
    fn an_oversized_reply_goes_out_as_a_typed_error_frame() {
        let reply = Response::StreamClosed(CloseReply {
            dram: vec![0xAB; 33 << 20],
            ..CloseReply::default()
        });
        let (mut wire, mut body) = (Vec::new(), Vec::new());
        send(&mut wire, &reply, &mut body).expect("an in-memory write cannot fail");
        assert!(
            body.capacity() <= crate::protocol::FRAME_RETAIN_BYTES,
            "the grown encode buffer is released"
        );
        let mut frames = FrameReader::new();
        let body = frames
            .next(&mut io::Cursor::new(&wire))
            .expect("one well-formed frame");
        assert_eq!(body.len() + 4, wire.len(), "and nothing after it");
        let Ok(Response::Error(frame)) = decode_response(body) else {
            panic!("wanted an error frame")
        };
        assert_eq!(frame.code, ErrorCode::FrameTooLarge);
        assert!(frame.message.contains("exceeds"), "{frame}");
    }
}
