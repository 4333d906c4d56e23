//! A minimal blocking client for the `revet-serve` wire protocol.
//!
//! One request in flight per connection (the protocol is strictly
//! request/reply per client); open more connections for concurrency, as
//! the concurrent-clients test in `tests/e2e.rs` does. One method per
//! request kind, each a [`Request`] out and the matching [`Response`]
//! variant back.

use crate::protocol::{
    decode_response, encode_into, trim_kept, write_frame, CloseReply, ErrorCode, ErrorFrame,
    ExecuteReply, ExecuteRequest, FrameError, FrameReader, MetricsInfo, OpenStreamRequest,
    PollReply, Request, Response, StatusInfo, WireDiagnostic, WireError,
};
use revet_core::{PassOptions, ProgramId};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's frame failed to parse/frame.
    Wire(String),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The structured, line/col-carrying diagnostics of a server-side
    /// compile failure — `Some` exactly when the server answered
    /// `CompileFailed`. The rendered caret-snippet report is in the
    /// frame's `message`.
    pub fn compile_diagnostics(&self) -> Option<&[WireDiagnostic]> {
        match self {
            ClientError::Server(f) if f.code == ErrorCode::CompileFailed => Some(&f.details),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Wire(other.to_string()),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e.to_string())
    }
}

/// Outcome of [`ServeClient::compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOutcome {
    /// Content-addressed id to pass to [`ServeClient::execute`].
    pub program_id: ProgramId,
    /// True when the server already held this program.
    pub cached: bool,
    /// Server-side compile wall-clock (0 on a hit).
    pub compile_micros: u64,
}

/// A blocking connection to a `revet-serve` server. It encodes each
/// request into, and reads each reply into, a buffer it keeps.
pub struct ServeClient {
    stream: TcpStream,
    /// The request being sent, encoded in place.
    out: Vec<u8>,
    frames: FrameReader,
}

impl fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeClient")
            .field("stream", &self.stream)
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(ServeClient {
            stream,
            out: Vec::new(),
            frames: FrameReader::new(),
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        encode_into(req, &mut self.out);
        let sent = write_frame(&mut self.stream, &self.out);
        trim_kept(&mut self.out);
        sent?;
        let resp = decode_response(self.frames.next(&mut self.stream)?)?;
        if let Response::Error(e) = resp {
            return Err(ClientError::Server(e));
        }
        Ok(resp)
    }

    /// Compiles (or resolves from cache) `source` under `options`.
    ///
    /// # Errors
    ///
    /// Typed server errors (e.g. `CompileFailed`), transport, or wire
    /// failures.
    pub fn compile(
        &mut self,
        source: &str,
        options: &PassOptions,
    ) -> Result<CompileOutcome, ClientError> {
        match self.round_trip(&Request::Compile {
            source: source.into(),
            options: options.clone(),
        })? {
            Response::Compiled {
                program_id,
                cached,
                compile_micros,
            } => Ok(CompileOutcome {
                program_id,
                cached,
                compile_micros,
            }),
            _ => Err(ClientError::Unexpected("wanted Compiled")),
        }
    }

    /// Runs a batch of instances of a cached program.
    ///
    /// # Errors
    ///
    /// Typed server errors (`UnknownProgram`, `Busy`, `BadRequest`, …),
    /// transport, or wire failures.
    pub fn execute(&mut self, req: ExecuteRequest) -> Result<ExecuteReply, ClientError> {
        match self.round_trip(&Request::Execute(req))? {
            Response::Executed(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("wanted Executed")),
        }
    }

    /// Fetches the server's cache/queue counters.
    ///
    /// # Errors
    ///
    /// Transport or wire failures.
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        match self.round_trip(&Request::Status)? {
            Response::Status(info) => Ok(info),
            _ => Err(ClientError::Unexpected("wanted Status")),
        }
    }

    /// Dumps the server's observability counters (execution counters plus
    /// cache/queue stats) — the monitoring scrape call.
    ///
    /// # Errors
    ///
    /// Transport or wire failures.
    pub fn metrics(&mut self) -> Result<MetricsInfo, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics(info) => Ok(info),
            _ => Err(ClientError::Unexpected("wanted Metrics")),
        }
    }

    /// Asks the server to begin a graceful drain.
    ///
    /// # Errors
    ///
    /// Transport or wire failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ShutdownAck")),
        }
    }

    /// Opens a streaming session of a cached program: a resident instance
    /// the server keeps between [`ServeClient::feed`] calls. Returns the
    /// session id for subsequent streaming calls.
    ///
    /// # Errors
    ///
    /// Typed server errors (`UnknownProgram`, `Busy`, `BadRequest`, …),
    /// transport, or wire failures.
    pub fn open_stream(&mut self, req: OpenStreamRequest) -> Result<u64, ClientError> {
        match self.round_trip(&Request::OpenStream(req))? {
            Response::StreamOpened { session } => Ok(session),
            _ => Err(ClientError::Unexpected("wanted StreamOpened")),
        }
    }

    /// Appends `main` argument sets to an open session; returns how many
    /// the session accepted (all of them: the entry link is unbounded).
    ///
    /// # Errors
    ///
    /// Typed server errors (`UnknownSession`, `SessionExpired`, …),
    /// transport, or wire failures.
    pub fn feed(&mut self, session: u64, argsets: Vec<Vec<u32>>) -> Result<u64, ClientError> {
        match self.round_trip(&Request::Feed { session, argsets })? {
            Response::Fed { accepted } => Ok(accepted),
            _ => Err(ClientError::Unexpected("wanted Fed")),
        }
    }

    /// Runs an open session to quiescence; the reply carries the output
    /// tokens produced since the previous poll.
    ///
    /// # Errors
    ///
    /// Typed server errors (`UnknownSession`, `SessionExpired`, …),
    /// transport, or wire failures.
    pub fn poll(&mut self, session: u64) -> Result<PollReply, ClientError> {
        match self.round_trip(&Request::Poll { session })? {
            Response::Polled(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("wanted Polled")),
        }
    }

    /// Closes a session: final drain, merged execution report, and the
    /// DRAM window requested at open.
    ///
    /// # Errors
    ///
    /// Typed server errors (`UnknownSession`, `SessionExpired`, and
    /// `BadRequest` carrying the deadlock diagnosis when the session
    /// holds unconsumed input), transport, or wire failures.
    pub fn close_stream(&mut self, session: u64) -> Result<CloseReply, ClientError> {
        match self.round_trip(&Request::CloseStream { session })? {
            Response::StreamClosed(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("wanted StreamClosed")),
        }
    }

    /// Sends a raw pre-encoded frame body and returns the raw reply body
    /// — the hook protocol tests use to probe malformed input.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn raw_round_trip(&mut self, body: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_frame(&mut self.stream, body)?;
        Ok(self.frames.next(&mut self.stream)?.to_vec())
    }
}
