//! Client library for the line-delimited JSON wire protocol.
//!
//! A [`Client`] owns one persistent connection; requests are synchronous
//! (one line out, one line back). The canonical payload bytes of a search
//! reply are recovered by re-writing the parsed payload subtree — the
//! canonical writer's byte-stability contract makes that identical to the
//! bytes the server holds in its cache, and the e2e suite asserts it.
//!
//! Transport errors are strictly separated from protocol errors: a
//! connection dropped *between the bytes of a reply* surfaces as
//! [`ClientError::Io`] (never a parse error on a truncated line), and
//! explicit server rejections — `{"ok":false}` lines — carry the server's
//! `retryable` verdict as [`ClientError::Server`]; the two signals
//! [`RetryClient`](crate::retry) heals from.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::codec::{CodecError, PlanPayload, SearchRequest};
use crate::fault::FaultyStream;
use crate::json::Json;

/// The transport a [`Client`] runs over: any bidirectional byte stream with
/// a settable read timeout. Production uses [`TcpStream`]; the chaos suite
/// substitutes [`FaultyStream`] to inject seeded wire faults.
pub trait Conn: Read + Write + Send {
    /// Sets the read timeout (None blocks forever).
    ///
    /// # Errors
    /// Propagates the socket option failure.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

impl Conn for FaultyStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        FaultyStream::set_read_timeout(self, dur)
    }
}

/// Client-side error: transport, protocol, or an explicit server rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure — including a connection dropped mid-reply or
    /// before any reply (a retry over a fresh connection may succeed; the
    /// content-hash request keys make that retry idempotent).
    Io(std::io::Error),
    /// The server answered something undecodable or self-inconsistent.
    /// Not retryable: the bytes arrived intact but are wrong.
    Protocol(String),
    /// The server answered `{"ok":false,...}`.
    Server {
        /// The server's `error` string (e.g. `deadline`, `overloaded`).
        error: String,
        /// The server's verdict on whether a verbatim retry can succeed.
        retryable: bool,
        /// Server-suggested retry delay (set for `overloaded`).
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// Whether a retry (possibly over a fresh connection) can succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Protocol(_) => false,
            ClientError::Server { retryable, .. } => *retryable,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { error, retryable, .. } => {
                write!(f, "server error: {error} (retryable: {retryable})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<crate::json::JsonError> for ClientError {
    fn from(e: crate::json::JsonError) -> Self {
        ClientError::Protocol(e.message)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Protocol(e.message)
    }
}

/// Convenience result alias.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// One search reply, decoded.
#[derive(Debug, Clone)]
pub struct SearchReply {
    /// Canonical content-hash key the server cached under.
    pub request_key: String,
    /// Whether the reply was served from the cache.
    pub cache_hit: bool,
    /// Whether the reply shared another request's in-flight search.
    pub coalesced: bool,
    /// Server-side handling time (ms).
    pub elapsed_ms: f64,
    /// The decoded plan payload.
    pub payload: PlanPayload,
    /// The payload's canonical bytes (re-encoded from the parse;
    /// byte-identical to what the server holds in its cache).
    pub payload_canonical: String,
    /// Span tree for this request, present only when tracing was requested
    /// ([`Client::set_trace`]). Diagnostic data outside the canonical
    /// payload: the payload bytes of a traced reply equal the untraced ones.
    pub trace: Option<Json>,
}

/// A synchronous connection to a `pte-serve` daemon.
pub struct Client {
    /// Single stream object: reads are buffered, writes go straight to
    /// the underlying connection via `get_mut` (requests are one small
    /// message; the strict write-then-read protocol never interleaves the
    /// two).
    conn: BufReader<Box<dyn Conn>>,
    /// Optional op-level deadline attached to every search request.
    deadline_ms: Option<u64>,
    /// Whether to request a span-tree trace with every search request.
    trace: bool,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_conn(Box::new(stream)))
    }

    /// Wraps an already-established transport (how the chaos suite mounts a
    /// [`FaultyStream`]).
    pub fn from_conn(conn: Box<dyn Conn>) -> Self {
        Client { conn: BufReader::new(conn), deadline_ms: None, trace: false }
    }

    /// Sets the per-reply read timeout (searches can be slow; default none).
    /// A timeout expiring mid-reply surfaces as [`ClientError::Io`] with
    /// kind `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.conn.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Attaches a deadline (ms) to every subsequent search request: the
    /// server aborts the search at the next stage boundary once it expires
    /// and replies `{"ok":false,"error":"deadline"}`.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Asks the server to record and return a span-tree trace with every
    /// subsequent search request. Like the deadline, the flag rides outside
    /// the canonical request subtree, so the cache key — and the payload
    /// bytes served — are identical with or without it.
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Sends one raw line and reads one reply line.
    ///
    /// EOF handling is strict: a clean close before any reply byte is
    /// `Io(ConnectionAborted)`, a close **mid-line** is `Io(UnexpectedEof)`
    /// — truncated bytes are never handed to the JSON parser.
    ///
    /// # Errors
    /// Transport failures or a closed connection.
    pub fn round_trip(&mut self, line: &str) -> ClientResult<String> {
        let writer = self.conn.get_mut();
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut reply: Vec<u8> = Vec::new();
        let n = self.conn.read_until(b'\n', &mut reply)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )));
        }
        if reply.last() != Some(&b'\n') {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            )));
        }
        let text = std::str::from_utf8(&reply)
            .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".into()))?;
        Ok(text.trim_end().to_string())
    }

    /// Sends one op document and decodes the reply envelope, surfacing
    /// `{"ok":false}` replies as [`ClientError::Server`].
    fn op(&mut self, doc: &Json) -> ClientResult<Json> {
        let line = doc.write().map_err(|e| ClientError::Protocol(e.message))?;
        let reply = self.round_trip(&line)?;
        let parsed = Json::parse(&reply)?;
        match parsed.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(parsed),
            Some(false) => Err(ClientError::Server {
                error: parsed
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
                retryable: parsed.get("retryable").and_then(Json::as_bool).unwrap_or(false),
                retry_after_ms: parsed.get("retry_after_ms").and_then(Json::as_u64),
            }),
            None => Err(ClientError::Protocol("reply without `ok` field".into())),
        }
    }

    /// Runs a search.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn search(&mut self, request: &SearchRequest) -> ClientResult<SearchReply> {
        let mut fields = vec![("op", Json::Str("search".into())), ("request", request.to_json())];
        if let Some(deadline_ms) = self.deadline_ms {
            // Op-level, deliberately outside the `request` subtree: the
            // deadline must not change the canonical bytes or cache key.
            fields.push(("deadline_ms", Json::Int(deadline_ms as i64)));
        }
        if self.trace {
            // Same placement rule as the deadline: op-level, never keyed.
            fields.push(("trace", Json::Bool(true)));
        }
        let doc = Json::obj(fields);
        let reply = self.op(&doc)?;
        let field = |name: &str| {
            reply.get(name).ok_or_else(|| ClientError::Protocol(format!("reply missing `{name}`")))
        };
        let cache = field("cache")?;
        let payload_doc = field("payload")?;
        let payload = PlanPayload::from_json(payload_doc)?;
        let request_key = field("request_key")?
            .as_str()
            .ok_or_else(|| ClientError::Protocol("request_key must be a string".into()))?
            .to_string();
        // Integrity check: the reply's key must be the content hash of the
        // request we actually sent.
        let canonical = request.encode().map_err(|e| ClientError::Protocol(e.message))?;
        crate::codec::check_key(&canonical, &request_key)?;
        Ok(SearchReply {
            request_key,
            cache_hit: cache.get("hit").and_then(Json::as_bool).unwrap_or(false),
            coalesced: cache.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
            elapsed_ms: field("elapsed_ms")?.as_f64().unwrap_or(0.0),
            payload_canonical: payload_doc.write().map_err(|e| ClientError::Protocol(e.message))?,
            payload,
            trace: reply.get("trace").cloned(),
        })
    }

    /// Reads the server's stats document.
    ///
    /// # Errors
    /// Transport failures.
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.op(&Json::obj(vec![("op", Json::Str("stats".into()))]))
    }

    /// Reads the server's metrics document: the stats fields plus a
    /// `prometheus` member holding the text exposition page.
    ///
    /// # Errors
    /// Transport failures.
    pub fn metrics(&mut self) -> ClientResult<Json> {
        self.op(&Json::obj(vec![("op", Json::Str("metrics".into()))]))
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Transport failures.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.op(&Json::obj(vec![("op", Json::Str("ping".into()))])).map(|_| ())
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.op(&Json::obj(vec![("op", Json::Str("shutdown".into()))])).map(|_| ())
    }
}
