//! The `revet-serve` wire protocol: length-prefixed, versioned binary
//! frames over a byte stream (TCP in practice).
//!
//! ## Framing
//!
//! ```text
//! ┌────────────┬─────────────────────────────────────────────┐
//! │ u32 LE len │ body: [u8 version][u8 kind][payload…]       │
//! └────────────┴─────────────────────────────────────────────┘
//! ```
//!
//! `len` counts the body bytes and must be in `2..=MAX_FRAME_BYTES`; a
//! longer declaration is rejected *before* any allocation. The version
//! byte is checked on decode so old clients get a typed
//! [`ErrorCode::UnsupportedVersion`] error back instead of garbled
//! payload parses. All integers are little-endian; strings and byte blobs
//! are `u32`-length-prefixed.
//!
//! Each end of a connection reads frames through a [`FrameReader`] and
//! encodes into a buffer it keeps, so once both have grown to the
//! connection's frames, a frame costs no allocation; between frames, each
//! holds at most [`FRAME_RETAIN_BYTES`].
//!
//! Each frame type's definition (inside `wire_struct!` / `wire_enum!`) is
//! also its layout: fields travel in the order declared, an enum's tag
//! byte first, and the encoder, the decoder and the decode-time size
//! guards are derived from that one listing.
//!
//! Every decode failure is a [`WireError`] naming what was wrong —
//! servers turn these into [`ErrorFrame`]s rather than dropping the
//! connection, so a buggy client sees *why* its frame was rejected.

use revet_core::{PassOptions, ProgramId, MAX_DRAM_BYTES};
use revet_machine::ExecReport;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

/// Current protocol version, first byte of every frame body.
///
/// v2: error frames carry a structured [`WireDiagnostic`] list after the
/// message (the `CompileFailed` payload). v3: [`PassOptions`] gained
/// `opt_level`, encoded as one byte after the toggle flags. v4: the
/// [`Request::Metrics`] / [`Response::Metrics`] observability frames, and
/// [`WireReport`] gained `peak_ready`. v5: the streaming-session frames
/// (`OpenStream` / `Feed` / `Poll` / `CloseStream` and their replies),
/// the [`ErrorCode::UnknownSession`] / [`ErrorCode::SessionExpired`]
/// codes, and the session counters appended to [`StatusInfo`]. v6:
/// [`PassOptions`] lost its `threads` presence byte and value (the count
/// is the source's own `pragma(threads, N)`). Older peers get a clean
/// [`ErrorCode::UnsupportedVersion`] instead of a garbled decode.
pub const WIRE_VERSION: u8 = 6;

/// Upper bound on a frame body. Large enough for a full 4 MiB DRAM
/// window per instance on a modest batch; small enough that a corrupt
/// length prefix cannot make the peer allocate gigabytes.
pub const MAX_FRAME_BYTES: u32 = 32 << 20;

/// Bytes a connection end's kept frame buffer — its [`FrameReader`], or
/// the buffer it encodes into — holds between frames. Typical frames are
/// tens of bytes to a few KB; only an overlay or a window close to a DRAM
/// image's size is larger. A buffer that grew past this is cut back before
/// the next frame begins, so an idle connection holds at most twice this
/// per end.
pub const FRAME_RETAIN_BYTES: usize = 256 << 10;

/// What went wrong while decoding a frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known request/response.
    UnknownKind(u8),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes(usize),
    /// A field held an impossible value (named).
    BadField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadField(name) => write!(f, "bad field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What went wrong while reading a frame off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes clean EOF between frames).
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The length prefix was below the 2-byte (version + kind) minimum.
    TooShort(u32),
}

impl FrameError {
    /// True when the peer closed the stream cleanly *between* frames.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "declared frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::TooShort(n) => write!(f, "declared frame length {n} below 2-byte minimum"),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec: one layout per type. Every frame type further down is declared
// through `wire_struct!` / `wire_enum!`, so its field order is written once,
// in its definition, and its encoder, decoder and size guards follow from it.

/// A type with exactly one byte layout.
pub(crate) trait Wire: Sized {
    /// Fewest bytes any value of the type occupies. A `Vec<Self>` count is
    /// checked against it, so a corrupt count cannot make the decoder
    /// reserve more elements than the frame could hold.
    const MIN: usize;
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut R<'_>) -> Result<Self, WireError>;
    /// Slice hooks in the manner of `Hash::hash_slice`: `u8` overrides both,
    /// so a blob is one copy in each direction.
    fn put_slice(vs: &[Self], w: &mut Vec<u8>) {
        for v in vs {
            v.put(w);
        }
    }
    fn get_vec(r: &mut R<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(Self::get(r)?);
        }
        Ok(vs)
    }
}

/// The undecoded rest of a frame body.
pub(crate) struct R<'a>(&'a [u8]);

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }
}

/// Reads one field; `where RANGE => "name"` rejects a value outside `RANGE`
/// as `BadField(name)`, at the byte where it was read.
macro_rules! wire_get {
    ($r:ident, $ft:ty $(where $ok:expr => $bad:literal)?) => {{
        let v = <$ft as Wire>::get($r)?;
        $(if !($ok).contains(&v) {
            return Err(WireError::BadField($bad));
        })?
        v
    }};
}

/// Declares a wire struct: the definition is the layout. Fields travel in
/// the order written and `MIN` is the sum of theirs.
macro_rules! wire_struct {
    ($(#[$m:meta])* pub struct $t:ident {
        $($(#[$fm:meta])* pub $f:ident: $ft:ty $(where $ok:expr => $bad:literal)?),* $(,)?
    }) => {
        $(#[$m])*
        pub struct $t {
            $($(#[$fm])* pub $f: $ft),*
        }

        impl Wire for $t {
            const MIN: usize = 0 $(+ <$ft as Wire>::MIN)*;
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$f.put(w);)*
            }
            fn get(r: &mut R<'_>) -> Result<Self, WireError> {
                Ok($t { $($f: wire_get!(r, $ft $(where $ok => $bad)?)),* })
            }
        }
    };
}

/// Declares a wire enum: `TAG => Variant` lines give each variant's tag byte
/// (for `Request` and `Response`, the frame's kind byte), a payload
/// travels after it as a struct's fields would, and the closing `else` arm
/// is the error for any other tag. `MIN` is the tag plus the smallest
/// variant.
macro_rules! wire_enum {
    ($(#[$m:meta])* pub enum $t:ident {
        $($(#[$vm:meta])* $tag:literal => $v:ident
            $(($p:ty $(where $ok:expr => $bad:literal)?))?
            $({ $($(#[$fm:meta])* $f:ident: $ft:ty),* $(,)? })?,)*
        else $k:pat => $unknown:expr $(,)?
    }) => {
        $(#[$m])*
        pub enum $t {
            $($(#[$vm])* $v $(($p))? $({ $($(#[$fm])* $f: $ft),* })?),*
        }

        impl Wire for $t {
            const MIN: usize = <u8 as Wire>::MIN
                + least(&[$(0 $(+ <$p as Wire>::MIN)? $($(+ <$ft as Wire>::MIN)*)?),*]);
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($t::$v $((named!(payload: $p)))? $({ $($f),* })? => {
                        w.push($tag);
                        $(named!(payload: $p).put(w);)?
                        $($($f.put(w);)*)?
                    })*
                }
            }
            fn get(r: &mut R<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $($tag => $t::$v
                        $((wire_get!(r, $p $(where $ok => $bad)?)))?
                        $({ $($f: wire_get!(r, $ft)),* })?,)*
                    $k => return Err($unknown),
                })
            }
        }
    };
}

/// Expands to `$x`. A tuple variant's payload has a type but no name; this
/// lets `wire_enum!` mention the type (a `$(…)?` group must) where it binds
/// the name.
macro_rules! named {
    ($x:ident: $p:ty) => {
        $x
    };
}

const fn least(xs: &[usize]) -> usize {
    let (mut least, mut i) = (usize::MAX, 0);
    while i < xs.len() {
        if xs[i] < least {
            least = xs[i];
        }
        i += 1;
    }
    least
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = size_of::<$t>();
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut R<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u16, u32, u64);

impl Wire for u8 {
    const MIN: usize = 1;
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        Ok(r.array::<1>()?[0])
    }
    fn put_slice(vs: &[u8], w: &mut Vec<u8>) {
        w.extend_from_slice(vs);
    }
    fn get_vec(r: &mut R<'_>, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self as u8);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        Ok(wire_get!(r, u8 where ..=1 => "bool") == 1)
    }
}

impl Wire for ProgramId {
    const MIN: usize = size_of::<ProgramId>();
    fn put(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&self.0);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        Ok(ProgramId(r.array()?))
    }
}

/// How every sequence travels: a `u32` count, then the elements.
fn put_seq<T: Wire>(vs: &[T], w: &mut Vec<u8>) {
    (vs.len() as u32).put(w);
    T::put_slice(vs, w);
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = <u32 as Wire>::MIN;
    fn put(&self, w: &mut Vec<u8>) {
        put_seq(self, w);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        // Every element occupies at least `T::MIN` of the bytes that remain;
        // a count promising more than that is refused before `get_vec`
        // reserves anything.
        const { assert!(T::MIN > 0) };
        if n.checked_mul(T::MIN).is_none_or(|bytes| bytes > r.0.len()) {
            return Err(WireError::Truncated);
        }
        T::get_vec(r, n)
    }
}

/// A byte blob that must be UTF-8.
impl Wire for String {
    const MIN: usize = <Vec<u8> as Wire>::MIN;
    fn put(&self, w: &mut Vec<u8>) {
        put_seq(self.as_bytes(), w);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        String::from_utf8(<Vec<u8>>::get(r)?).map_err(|_| WireError::BadField("utf-8 string"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Hand-written because the bytes are not the fields: the six toggles pack
/// into one flag byte.
impl Wire for PassOptions {
    const MIN: usize = 2 * <u8 as Wire>::MIN + <u64 as Wire>::MIN;
    fn put(&self, w: &mut Vec<u8>) {
        let flags = (self.if_to_select as u8)
            | (self.fuse_allocators as u8) << 1
            | (self.hoist_allocators as u8) << 2
            | (self.bufferize_replicate as u8) << 3
            | (self.pack_subwords as u8) << 4
            | (self.eliminate_hierarchy as u8) << 5;
        flags.put(w);
        self.opt_level.put(w);
        (self.dram_bytes as u64).put(w);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        let flags = wire_get!(r, u8 where ..=0x3F => "pass option flags");
        let opt_level = wire_get!(r, u8 where ..=2 => "opt level");
        let dram_bytes = wire_get!(r, u64 where ..=MAX_DRAM_BYTES => "dram bytes");
        Ok(PassOptions {
            if_to_select: flags & 1 != 0,
            fuse_allocators: flags & 2 != 0,
            hoist_allocators: flags & 4 != 0,
            bufferize_replicate: flags & 8 != 0,
            pack_subwords: flags & 16 != 0,
            eliminate_hierarchy: flags & 32 != 0,
            opt_level,
            dram_bytes: dram_bytes as usize,
        })
    }
}

/// Hand-written because the bytes are the discriminant, not a field.
impl Wire for ErrorCode {
    const MIN: usize = <u16 as Wire>::MIN;
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u16).put(w);
    }
    fn get(r: &mut R<'_>) -> Result<Self, WireError> {
        Ok(match u16::get(r)? {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::CompileFailed,
            5 => ErrorCode::UnknownProgram,
            6 => ErrorCode::Busy,
            7 => ErrorCode::BadRequest,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::UnknownSession,
            10 => ErrorCode::SessionExpired,
            _ => return Err(WireError::BadField("error code")),
        })
    }
}

/// A frame body is the version byte, then the frame — whose enum tag is
/// the kind byte. Clears `body` and encodes into it, so a buffer kept for a
/// connection's life allocates only while it grows.
pub(crate) fn encode_into(frame: &impl Wire, body: &mut Vec<u8>) {
    body.clear();
    body.push(WIRE_VERSION);
    frame.put(body);
}

/// Bounds a kept encode buffer between frames. One that grew past
/// [`FRAME_RETAIN_BYTES`] (a growing `Vec` can overshoot its frame by up to
/// twice) shrinks to the frame it just held if that fits the bound, so
/// the next frame of that size encodes in place, and is released if not.
pub(crate) fn trim_kept(body: &mut Vec<u8>) {
    if body.capacity() > FRAME_RETAIN_BYTES {
        if body.len() > FRAME_RETAIN_BYTES {
            body.clear();
        }
        body.shrink_to_fit();
    }
}

fn decode<T: Wire>(body: &[u8]) -> Result<T, WireError> {
    if body.len() < 2 {
        return Err(WireError::Truncated);
    }
    if body[0] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(body[0]));
    }
    let mut r = R(&body[1..]);
    let frame = T::get(&mut r)?;
    if !r.0.is_empty() {
        return Err(WireError::TrailingBytes(r.0.len()));
    }
    Ok(frame)
}

/// Encodes a request into a frame body (version + kind + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    encode_into(req, &mut body);
    body
}

/// Decodes a request frame body.
///
/// # Errors
///
/// Any [`WireError`]; the body is rejected, never partially applied.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    decode(body)
}

/// Encodes a response into a frame body (version + kind + payload).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    encode_into(resp, &mut body);
    body
}

/// Decodes a response frame body.
///
/// # Errors
///
/// Any [`WireError`]; the body is rejected, never partially applied.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    decode(body)
}

// ---------------------------------------------------------------------------
// Frames

wire_enum! {
    /// A request frame, client → server. The tag is the frame's kind byte;
    /// request kinds are < 0x80.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Request {
        /// Compile `source` under `options`; the reply names the cached
        /// program by its content-addressed [`ProgramId`].
        0x01 => Compile {
            /// Revet source text.
            source: String,
            /// Pass options (part of the program's identity).
            options: PassOptions,
        },
        /// Run a batch of instances of an already-compiled program.
        0x02 => Execute(ExecuteRequest),
        /// Snapshot the server's cache/queue counters.
        0x03 => Status,
        /// Dump the server's counters (execution totals, cache, pools and
        /// sessions, plus the cache/queue status) — the monitoring scrape
        /// endpoint.
        0x05 => Metrics,
        /// Begin graceful shutdown: drain in-flight work, then stop.
        0x04 => Shutdown,
        /// Open a streaming session: a resident instance of a cached program
        /// that [`Request::Feed`] appends input to incrementally.
        0x06 => OpenStream(OpenStreamRequest),
        /// Append argument sets to an open streaming session.
        0x07 => Feed {
            /// The session id [`Response::StreamOpened`] returned.
            session: u64,
            /// Whole `main` argument sets to append.
            argsets: Vec<Vec<u32>>,
        },
        /// Run an open session to quiescence and collect its new output.
        0x08 => Poll {
            /// The session id [`Response::StreamOpened`] returned.
            session: u64,
        },
        /// Close a streaming session, returning its final DRAM window and the
        /// execution report merged across every poll.
        0x09 => CloseStream {
            /// The session id [`Response::StreamOpened`] returned.
            session: u64,
        },
        else k => WireError::UnknownKind(k),
    }
}

wire_struct! {
    /// Payload of [`Request::Execute`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ExecuteRequest {
        /// Which cached program to instantiate.
        pub program_id: ProgramId,
        /// One instance per argument set.
        pub argsets: Vec<Vec<u32>>,
        /// DRAM overlays `(byte offset, bytes)` applied to every instance
        /// before it runs (per-request inputs for a shared compile).
        pub dram_inits: Vec<(u64, Vec<u8>)>,
        /// `(offset, len)` of the DRAM window to return per instance — the
        /// program's output region. Zero-length returns no bytes.
        pub window: (u64, u64),
    }
}

wire_struct! {
    /// Payload of [`Request::OpenStream`]: like an [`ExecuteRequest`] but
    /// with no up-front argument sets — input arrives later via
    /// [`Request::Feed`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct OpenStreamRequest {
        /// Which cached program to keep resident.
        pub program_id: ProgramId,
        /// DRAM overlays `(byte offset, bytes)` applied once, at open.
        pub dram_inits: Vec<(u64, Vec<u8>)>,
        /// `(offset, len)` of the DRAM window [`Response::StreamClosed`]
        /// returns. Zero-length returns no bytes.
        pub window: (u64, u64),
    }
}

wire_enum! {
    /// One output token on the wire: the session's incremental output stream
    /// ([`Response::Polled`] / [`Response::StreamClosed`] carry these).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireTok {
        /// A data tuple of 32-bit words.
        0 => Data(Vec<u32>),
        /// A barrier token Ωn (level in `1..=15`).
        1 => Barrier(u8 where 1..=15 => "barrier level"),
        else _ => WireError::BadField("token tag"),
    }
}

impl WireTok {
    /// Flattens a machine token for the wire.
    pub fn from_ttok(t: &revet_machine::TTok) -> WireTok {
        match t {
            revet_sltf::Tok::Data(tuple) => WireTok::Data(tuple.iter().map(|w| w.0).collect()),
            revet_sltf::Tok::Barrier(l) => WireTok::Barrier(l.get()),
        }
    }

    /// Rebuilds the machine token. `None` when the barrier level is out
    /// of the SLTF `1..=15` range (decode already rejects such frames).
    pub fn to_ttok(&self) -> Option<revet_machine::TTok> {
        Some(match self {
            WireTok::Data(words) => {
                revet_sltf::Tok::Data(words.iter().map(|&w| revet_sltf::Word(w)).collect())
            }
            WireTok::Barrier(l) => revet_sltf::Tok::Barrier(revet_sltf::BarrierLevel::new(*l)?),
        })
    }
}

wire_enum! {
    /// A response frame, server → client. The tag is the frame's kind byte;
    /// response kinds are ≥ 0x80.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Response {
        /// Reply to [`Request::Compile`].
        0x81 => Compiled {
            /// Content-addressed id of the (now cached) program.
            program_id: ProgramId,
            /// True when the cache already held this program.
            cached: bool,
            /// Wall-clock of the compile itself (0 on a cache hit).
            compile_micros: u64,
        },
        /// Reply to [`Request::Execute`].
        0x82 => Executed(ExecuteReply),
        /// Reply to [`Request::Status`].
        0x83 => Status(StatusInfo),
        /// Reply to [`Request::Metrics`].
        0x85 => Metrics(MetricsInfo),
        /// Reply to [`Request::Shutdown`]: the drain has begun.
        0x84 => ShutdownAck,
        /// Reply to [`Request::OpenStream`].
        0x86 => StreamOpened {
            /// Server-assigned session id for subsequent `Feed`/`Poll`/
            /// `CloseStream` frames.
            session: u64,
        },
        /// Reply to [`Request::Feed`].
        0x87 => Fed {
            /// How many argument sets the session accepted: every one sent,
            /// since a session's entry link is unbounded.
            accepted: u64,
        },
        /// Reply to [`Request::Poll`].
        0x88 => Polled(PollReply),
        /// Reply to [`Request::CloseStream`].
        0x89 => StreamClosed(CloseReply),
        /// Typed failure (any request may produce one).
        0xFF => Error(ErrorFrame),
        else k => WireError::UnknownKind(k),
    }
}

wire_struct! {
    /// Payload of [`Response::Polled`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct PollReply {
        /// Output tokens produced since the previous poll.
        pub tokens: Vec<WireTok>,
        /// True when the graph drained cleanly (nothing in flight); false
        /// when tokens are parked awaiting further input.
        pub finished: bool,
        /// Bytes of undelivered work the session holds after the poll.
        pub resident_bytes: u64,
    }
}

wire_struct! {
    /// Payload of [`Response::StreamClosed`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct CloseReply {
        /// Execution counters merged across every poll of the session.
        pub merged: WireReport,
        /// Output tokens produced by the final drain (after the last poll).
        pub tokens: Vec<WireTok>,
        /// The DRAM window requested at open, from the final memory image.
        pub dram: Vec<u8>,
    }
}

wire_struct! {
    /// Scheduler counters mirrored over the wire (a flattened
    /// `revet_machine::ExecReport`, merged over the batch's successes).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct WireReport {
        /// Scheduler generations executed.
        pub rounds: u64,
        /// Node steps that moved at least one token.
        pub productive_steps: u64,
        /// Node steps attempted.
        pub steps: u64,
        /// High watermark of ready nodes in any one scheduler round across
        /// the batch (max-merged, not summed).
        pub peak_ready: u64,
    }
}

impl From<&ExecReport> for WireReport {
    fn from(report: &ExecReport) -> Self {
        WireReport {
            rounds: report.rounds,
            productive_steps: report.productive_steps,
            steps: report.steps,
            peak_ready: report.peak_ready,
        }
    }
}

wire_struct! {
    /// Payload of [`Response::Executed`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ExecuteReply {
        /// Counters merged over the batch's successful instances.
        pub merged: WireReport,
        /// Per-instance outcomes, in argset order.
        pub instances: Vec<InstanceOutcome>,
    }
}

wire_enum! {
    /// One instance's outcome inside an [`ExecuteReply`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum InstanceOutcome {
        /// The instance ran to quiescence.
        0 => Ok {
            /// Per-instance wall-clock, microseconds.
            wall_micros: u64,
            /// The requested DRAM window of this instance's final memory.
            dram: Vec<u8>,
        },
        /// The instance failed (others in the batch may have succeeded).
        1 => Err {
            /// The machine error, rendered.
            message: String,
        },
        else _ => WireError::BadField("instance outcome tag"),
    }
}

wire_struct! {
    /// Payload of [`Response::Status`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StatusInfo {
        /// Programs currently resident in the cache.
        pub programs_cached: u64,
        /// Cache capacity (LRU evicts beyond this).
        pub cache_capacity: u64,
        /// Lookups served from the cache.
        pub cache_hits: u64,
        /// Lookups that had to compile.
        pub cache_misses: u64,
        /// Programs evicted by the LRU policy.
        pub cache_evictions: u64,
        /// Execute jobs waiting for a run slot.
        pub queued_jobs: u64,
        /// Execute jobs currently running, each on its client's connection
        /// thread.
        pub inflight_jobs: u64,
        /// Instances completed successfully since boot.
        pub executed_instances: u64,
        /// Instances that failed since boot.
        pub failed_instances: u64,
        /// Streaming sessions currently resident.
        pub open_sessions: u64,
        /// Streaming sessions evicted for sitting idle since boot.
        pub evicted_sessions: u64,
        /// Total resident footprint of open streaming sessions, bytes.
        pub session_resident_bytes: u64,
        /// True once graceful shutdown has begun.
        pub draining: bool,
    }
}

wire_struct! {
    /// Payload of [`Response::Metrics`]: the server's counters since boot
    /// plus the same queue/cache snapshot [`Request::Status`] returns, taken
    /// at the same instant so the two views are consistent.
    ///
    /// Each fact is named once. The execution counters (`exec.dispatches`,
    /// `exec.productive`, `exec.rounds`, `exec.peak_ready`) are the merge of
    /// the reports the replies carried: every [`ExecuteReply::merged`] and
    /// every [`CloseReply::merged`]. A streaming session counts when it
    /// closes — its polls are in its close reply's report — and then counts
    /// as one instance in `status.executed_instances`. The `serve.*`
    /// counters are the resident programs' DRAM image and channel-table
    /// pools (`serve.{dram,chan}_pool.{hits,misses,retained_bytes}`); the
    /// cache, instance and session totals are fields of `status`.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MetricsInfo {
        /// Sorted `(name, value)` pairs, e.g. `("exec.dispatches", 12345)`.
        pub counters: Vec<(String, u64)>,
        /// Cache/queue snapshot taken alongside the counters.
        pub status: StatusInfo,
    }
}

impl MetricsInfo {
    /// The value of the counter called `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Machine-readable failure category carried by an [`ErrorFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame body failed to decode.
    Malformed = 1,
    /// The frame's version byte is unknown to this server.
    UnsupportedVersion = 2,
    /// A frame exceeded [`MAX_FRAME_BYTES`]: a request's declared length,
    /// or the reply the server would have had to send.
    FrameTooLarge = 3,
    /// The compiler rejected the source.
    CompileFailed = 4,
    /// Execute named a [`ProgramId`] the cache does not hold.
    UnknownProgram = 5,
    /// Execute's wait line or the session table is full — back off and
    /// retry.
    Busy = 6,
    /// The request was well-formed but impossible (bad window, …).
    BadRequest = 7,
    /// The server is draining and accepts no new work.
    ShuttingDown = 8,
    /// The frame named a session id this server has never issued, or one
    /// the client already closed.
    UnknownSession = 9,
    /// The session existed but was evicted for sitting idle — reopen and
    /// refeed.
    SessionExpired = 10,
}

wire_struct! {
    /// One machine-readable compiler diagnostic inside an [`ErrorFrame`] —
    /// the structured payload of a `CompileFailed` reply. Line/column are
    /// 1-based and pre-resolved server-side (clients don't need the source's
    /// line table); `0` means "no source location".
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireDiagnostic {
        /// Stable `E`-prefixed code (`revet_diag::codes`).
        pub code: String,
        /// 0 = error, 1 = warning, 2 = note.
        pub severity: u8 where ..=WireDiagnostic::SEVERITY_NOTE => "diagnostic severity",
        /// 1-based line of the primary span's start (0 = unknown).
        pub line: u32,
        /// 1-based column of the primary span's start (0 = unknown).
        pub col: u32,
        /// Human-readable one-liner.
        pub message: String,
    }
}

impl WireDiagnostic {
    /// Severity tag for errors.
    pub const SEVERITY_ERROR: u8 = 0;
    /// Severity tag for warnings.
    pub const SEVERITY_WARNING: u8 = 1;
    /// Severity tag for notes.
    pub const SEVERITY_NOTE: u8 = 2;
}

impl fmt::Display for WireDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            WireDiagnostic::SEVERITY_WARNING => "warning",
            WireDiagnostic::SEVERITY_NOTE => "note",
            _ => "error",
        };
        if self.line != 0 {
            write!(
                f,
                "{sev}[{}] at {}:{}: {}",
                self.code, self.line, self.col, self.message
            )
        } else {
            write!(f, "{sev}[{}]: {}", self.code, self.message)
        }
    }
}

wire_struct! {
    /// A typed failure reply.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ErrorFrame {
        /// Failure category.
        pub code: ErrorCode,
        /// Human-readable detail. For `CompileFailed` this is the full
        /// rendered diagnostic report (caret snippets included).
        pub message: String,
        /// Structured per-diagnostic payload (`CompileFailed` fills this; the
        /// transport-level errors leave it empty).
        pub details: Vec<WireDiagnostic>,
    }
}

impl ErrorFrame {
    /// Creates an error frame with no structured details.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorFrame {
            code,
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// Attaches structured diagnostics.
    pub fn with_details(mut self, details: Vec<WireDiagnostic>) -> Self {
        self.details = details;
        self
    }
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if !self.details.is_empty() {
            write!(f, " ({} diagnostic(s))", self.details.len())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame I/O

/// Writes one frame (length prefix + body) and flushes. Prefix and body go
/// out as one vectored write — one segment and one syscall on a
/// `TCP_NODELAY` socket — without copying the body; a short write
/// continues where it stopped.
///
/// # Errors
///
/// Propagates transport errors (`WriteZero` if the writer stops taking
/// bytes); refuses bodies over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {} exceeds cap {MAX_FRAME_BYTES}", body.len()),
        ));
    }
    let prefix = (body.len() as u32).to_le_bytes();
    let mut frame = [IoSlice::new(&prefix), IoSlice::new(body)];
    let mut rest = &mut frame[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// What a new [`FrameReader`] holds, and what one shrinks back to after a
/// frame past [`FRAME_RETAIN_BYTES`]: room for a typical frame and the
/// frames queued behind it.
const READ_CHUNK: usize = 4 << 10;

/// Reads frames off a byte stream into one buffer it keeps for the
/// stream's life.
///
/// Each `read` takes whatever the transport has, up to the buffer's room,
/// so a frame that has already arrived whole costs one call, and a frame
/// queued behind it arrives in the same call. The length prefix is
/// checked before the buffer grows to hold the body; the body is returned
/// in place. A buffer that grew past [`FRAME_RETAIN_BYTES`] for one frame
/// is shrunk back when the next frame is asked for.
///
/// After an error other than a timeout the stream is no longer
/// frame-aligned, and the reader should be dropped with it.
pub struct FrameReader {
    /// Zero-filled to its length; all of it is room to read into.
    buf: Vec<u8>,
    /// Start of the bytes not yet returned.
    head: usize,
    /// End of the bytes read.
    tail: usize,
}

impl fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &(self.tail - self.head))
            .field("capacity", &self.buf.capacity())
            .finish()
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader holding 4 KiB of room, enough for a typical frame.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0; READ_CHUNK],
            head: 0,
            tail: 0,
        }
    }

    /// Bytes the reader's buffer holds, read or not.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Reads the next frame's body, waiting through read timeouts.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_while`].
    pub fn next(&mut self, r: &mut impl Read) -> Result<&[u8], FrameError> {
        self.next_while(r, |_| true)
    }

    /// Reads the next frame's body. A read that times out (`WouldBlock` or
    /// `TimedOut`) asks `keep_waiting` whether to read again, passing the
    /// instant this call first waited for the rest of a partly arrived
    /// frame — `None` while nothing of the frame has arrived. A frame that
    /// arrives whole reads no clock.
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] on transport failure (clean EOF between frames
    /// reports as `UnexpectedEof`) and with the timeout `keep_waiting`
    /// declined; [`FrameError::TooLarge`] / [`FrameError::TooShort`] on
    /// out-of-bounds length prefixes, before the buffer grows.
    pub fn next_while(
        &mut self,
        r: &mut impl Read,
        mut keep_waiting: impl FnMut(Option<Instant>) -> bool,
    ) -> Result<&[u8], FrameError> {
        if self.buf.capacity() > FRAME_RETAIN_BYTES {
            self.compact();
            self.buf.truncate(self.tail.max(READ_CHUNK));
            self.buf.shrink_to_fit();
        }
        let mut since = None;
        loop {
            let pending = &self.buf[self.head..self.tail];
            let need = match pending.first_chunk() {
                None => 4,
                Some(&prefix) => {
                    let len = u32::from_le_bytes(prefix);
                    if len > MAX_FRAME_BYTES {
                        return Err(FrameError::TooLarge(len));
                    }
                    if len < 2 {
                        return Err(FrameError::TooShort(len));
                    }
                    let end = 4 + len as usize;
                    if pending.len() >= end {
                        let body = self.head + 4..self.head + end;
                        self.head += end;
                        return Ok(&self.buf[body]);
                    }
                    end
                }
            };
            // Room for the rest of this frame, and for whatever follows it
            // in the buffer's slack.
            self.compact();
            if self.buf.len() < need {
                // Exactly: a frame within the retention bound leaves a
                // buffer within it.
                self.buf.reserve_exact(need - self.buf.len());
                self.buf.resize(need, 0);
            }
            if self.tail > 0 {
                since.get_or_insert_with(Instant::now);
            }
            match r.read(&mut self.buf[self.tail..]) {
                Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if !keep_waiting(since) {
                        return Err(FrameError::Io(e));
                    }
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Moves the unreturned bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_requests_round_trip() {
        for req in [
            Request::Status,
            Request::Metrics,
            Request::Shutdown,
            Request::Compile {
                source: "void main() {}".into(),
                options: PassOptions::none(),
            },
            Request::Execute(ExecuteRequest {
                program_id: ProgramId([7; 16]),
                argsets: vec![vec![1, 2], vec![], vec![3]],
                dram_inits: vec![(0, vec![1, 2, 3]), (64, vec![])],
                window: (128, 16),
            }),
            Request::OpenStream(OpenStreamRequest {
                program_id: ProgramId([9; 16]),
                dram_inits: vec![(8, vec![0xAB])],
                window: (0, 64),
            }),
            Request::Feed {
                session: 3,
                argsets: vec![vec![4, 5], vec![6]],
            },
            Request::Poll { session: 3 },
            Request::CloseStream { session: u64::MAX },
        ] {
            let body = encode_request(&req);
            assert_eq!(decode_request(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn fixed_responses_round_trip() {
        for resp in [
            Response::ShutdownAck,
            Response::Compiled {
                program_id: ProgramId([3; 16]),
                cached: true,
                compile_micros: 1234,
            },
            Response::Executed(ExecuteReply {
                merged: WireReport {
                    rounds: 1,
                    productive_steps: 2,
                    steps: 3,
                    peak_ready: 4,
                },
                instances: vec![
                    InstanceOutcome::Ok {
                        wall_micros: 55,
                        dram: vec![9, 8, 7],
                    },
                    InstanceOutcome::Err {
                        message: "deadlock".into(),
                    },
                ],
            }),
            Response::Status(StatusInfo {
                programs_cached: 4,
                cache_capacity: 32,
                cache_hits: 10,
                cache_misses: 5,
                cache_evictions: 1,
                queued_jobs: 0,
                inflight_jobs: 2,
                executed_instances: 99,
                failed_instances: 1,
                open_sessions: 3,
                evicted_sessions: 2,
                session_resident_bytes: 8192,
                draining: false,
            }),
            Response::Metrics(MetricsInfo {
                counters: vec![
                    ("exec.dispatches".into(), 12345),
                    ("exec.instances".into(), 17),
                    ("serve.cache.hits".into(), 9),
                ],
                status: StatusInfo {
                    programs_cached: 2,
                    cache_hits: 9,
                    ..StatusInfo::default()
                },
            }),
            Response::Metrics(MetricsInfo::default()),
            Response::StreamOpened { session: 17 },
            Response::Fed { accepted: 2 },
            Response::Polled(PollReply {
                tokens: vec![
                    WireTok::Data(vec![1, 2, 3]),
                    WireTok::Barrier(1),
                    WireTok::Data(vec![]),
                    WireTok::Barrier(15),
                ],
                finished: false,
                resident_bytes: 4096,
            }),
            Response::Polled(PollReply::default()),
            Response::StreamClosed(CloseReply {
                merged: WireReport {
                    rounds: 9,
                    productive_steps: 8,
                    steps: 10,
                    peak_ready: 3,
                },
                tokens: vec![WireTok::Barrier(2)],
                dram: vec![0, 1, 2, 3],
            }),
            Response::Error(ErrorFrame::new(ErrorCode::Busy, "queue full")),
            Response::Error(ErrorFrame::new(ErrorCode::UnknownSession, "no session 9")),
            Response::Error(ErrorFrame::new(ErrorCode::SessionExpired, "idle too long")),
            Response::Error(
                ErrorFrame::new(ErrorCode::CompileFailed, "error[E0103]: …rendered…").with_details(
                    vec![
                        WireDiagnostic {
                            code: "E0103".into(),
                            severity: WireDiagnostic::SEVERITY_ERROR,
                            line: 2,
                            col: 11,
                            message: "expected expression, found ';'".into(),
                        },
                        WireDiagnostic {
                            code: "E0301".into(),
                            severity: WireDiagnostic::SEVERITY_WARNING,
                            line: 0,
                            col: 0,
                            message: "no source location".into(),
                        },
                    ],
                ),
            ),
        ] {
            let body = encode_response(&resp);
            assert_eq!(decode_response(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn frame_io_round_trips_over_a_buffer() {
        let body = encode_request(&Request::Status);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut frames = FrameReader::new();
        assert_eq!(frames.next(&mut cursor).unwrap(), body);
        // The stream is exactly drained: the next read is a clean EOF.
        assert!(frames.next(&mut cursor).unwrap_err().is_clean_eof());
    }

    #[test]
    fn corrupt_collection_count_is_rejected_without_allocation() {
        let mut body = encode_request(&Request::Execute(ExecuteRequest {
            program_id: ProgramId([0; 16]),
            argsets: vec![],
            dram_inits: vec![],
            window: (0, 0),
        }));
        // Stamp an absurd argset count into the fixed-offset count field
        // (version + kind + 16-byte id = offset 18).
        body[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_stream_tokens_are_rejected() {
        let polled = |tokens| {
            Response::Polled(PollReply {
                tokens,
                finished: true,
                resident_bytes: 0,
            })
        };
        // Token list layout after version + kind: u32 count, then tagged
        // elements. Tag byte of the first element sits at offset 6.
        let mut body = encode_response(&polled(vec![WireTok::Barrier(1)]));
        body[6] = 2;
        assert_eq!(
            decode_response(&body),
            Err(WireError::BadField("token tag"))
        );
        // An out-of-range barrier level (0 and >15 are both invalid SLTF).
        for bad in [0u8, 16] {
            let mut body = encode_response(&polled(vec![WireTok::Barrier(1)]));
            body[7] = bad;
            assert_eq!(
                decode_response(&body),
                Err(WireError::BadField("barrier level"))
            );
        }
        // A corrupt token count cannot force a huge allocation.
        let mut body = encode_response(&polled(vec![]));
        body[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_response(&body), Err(WireError::Truncated));
    }

    #[test]
    fn wire_tok_round_trips_through_machine_tokens() {
        use revet_machine::{tbar, tdata};
        for tok in [tdata([1u32, 2, 3]), tbar(1), tbar(15)] {
            let wire = WireTok::from_ttok(&tok);
            assert_eq!(wire.to_ttok().unwrap(), tok);
        }
        assert_eq!(WireTok::Barrier(0).to_ttok(), None);
        assert_eq!(WireTok::Barrier(16).to_ttok(), None);
    }

    /// A gathering writer that takes at most `limit` bytes per call and
    /// counts the calls.
    struct Trickle {
        wire: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let start = self.wire.len();
            for buf in bufs {
                let room = self.limit - (self.wire.len() - start);
                self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.wire.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_survives_short_writes() {
        let body = b"\x01\x02 seven";
        let mut wire = 8u32.to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        for (limit, calls) in [(usize::MAX, 1), (3, 4), (1, 12)] {
            let mut w = Trickle {
                wire: Vec::new(),
                calls: 0,
                limit,
            };
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.wire, wire, "{limit} bytes a call");
            assert_eq!(w.calls, calls, "{limit} bytes a call");
        }
        assert_eq!(FrameReader::new().next(&mut &wire[..]).unwrap(), body);
    }
}
