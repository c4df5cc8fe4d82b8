//! The TCP network front end: remote readers for the serving tier.
//!
//! [`NetServer::bind`] takes a [`crate::ServeHandle`] and exposes the
//! full typed query surface ([`crate::Query`]) over a length-prefixed
//! JSON protocol on plain [`std::net::TcpListener`] — no async runtime,
//! no serialization crate, nothing beyond the standard library:
//!
//! ```text
//! clients ──TCP──> acceptor thread ──spawn──> one thread per connection
//!                    │ cap check                │ read frame
//!                    │ busy frame when full     │ decode → ServeHandle::execute
//!                    └ net_connections*         └ encode → write frame
//! ```
//!
//! Every decoded request funnels into [`crate::ServeHandle::execute`] —
//! the same function in-process readers call — so a remote client and a
//! local one asking the same question get the same answer by
//! construction; the network only adds the codec in [`wire`].
//!
//! **Staleness contract**: answers come from the latest *published*
//! snapshot, exactly like in-process reads. A TCP hop adds latency but
//! no extra staleness dimension.
//!
//! Operational behavior:
//!
//! - **Connection cap** ([`NetConfigBuilder::max_connections`]): every
//!   admitted connection is answered at once, on its own thread, until
//!   it closes or idles past the read timeout. Over the cap the acceptor
//!   answers one typed `busy` frame and closes — counted in
//!   [`crate::ServeStats::net_connections_rejected`]. The cap is also
//!   the resource bound: at most cap + 1 threads (with the acceptor) and
//!   cap × `max_frame_bytes` of request buffers.
//! - **Timeouts**: per-connection read/write timeouts; an idle or stuck
//!   peer is dropped and its thread ends.
//! - **Isolation**: a panic while answering one connection (the metric
//!   is caller code) ends that connection's thread alone; the connection
//!   closes at once and its slot is free again.
//! - **Typed errors end-to-end**: malformed frames get `bad_json` /
//!   `bad_query` / `oversized_frame` response frames (counted in
//!   [`crate::ServeStats::net_protocol_errors`]); the connection
//!   survives everything except an oversized prefix (whose payload
//!   cannot be skipped safely). Decoding is linear in the frame's bytes,
//!   so even a frame at the size cap costs its thread milliseconds.
//! - **Buffered frame I/O**: both ends read through a buffer, so a frame
//!   that fits it (every request, most responses) arrives in one `read`
//!   call, and write each frame with one call from a reused buffer.
//! - **Graceful shutdown**: [`NetServer::shutdown`] stops the acceptor,
//!   lets in-flight requests finish writing their response, answers
//!   connections admitted as it began with a `shutting_down` frame, and
//!   joins every thread. [`live_net_threads`] observes the invariant.

pub mod json;
pub mod wire;

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use edm_common::metric::Metric;
use edm_common::point::GridCoords;

use crate::query::{Query, QueryError, QueryResponse};
use crate::server::ServeHandle;
use wire::{
    decode_query, decode_result, read_frame, send_frame, write_frame, write_query, write_result,
    FrameError, ProtocolError, WirePoint, WireResult,
};

/// Process-wide count of live network threads (acceptors + connection
/// threads), mirroring [`edm_core::live_pool_workers`]: after
/// [`NetServer::shutdown`] (or drop) joins everything, a count that stays
/// elevated is a leak.
static LIVE_NET_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of [`NetServer`] threads currently alive in this process,
/// across all servers: each server's acceptor plus one thread per
/// connection it is serving. Diagnostic for leak checks in tests.
pub fn live_net_threads() -> usize {
    LIVE_NET_THREADS.load(SeqCst)
}

/// Decrements [`LIVE_NET_THREADS`] even if the thread unwinds.
struct NetThreadGuard;

impl NetThreadGuard {
    fn enter() -> Self {
        LIVE_NET_THREADS.fetch_add(1, SeqCst);
        NetThreadGuard
    }
}

impl Drop for NetThreadGuard {
    fn drop(&mut self) {
        LIVE_NET_THREADS.fetch_sub(1, SeqCst);
    }
}

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

/// Configuration of [`NetServer::bind`]. **Builder-only** — there is no
/// struct-literal spelling and no `Default`; obtain one via
/// [`NetConfig::builder`], which validates every knob into a typed
/// [`NetConfigError`]:
///
/// ```
/// use edm_serve::net::NetConfig;
/// let cfg = NetConfig::builder()
///     .addr("127.0.0.1:0")
///     .max_connections(32)
///     .build()?;
/// assert_eq!(cfg.max_connections(), 32);
/// # Ok::<(), edm_serve::net::NetConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    addr: String,
    max_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_frame_bytes: usize,
}

impl NetConfig {
    /// A builder starting from the defaults: `127.0.0.1:0` (ephemeral
    /// loopback port), 64 connections, 30 s read / 10 s write
    /// timeouts, 1 MiB frames.
    pub fn builder() -> NetConfigBuilder {
        NetConfigBuilder::default()
    }

    /// The address the server will bind (`host:port`; port 0 = ephemeral,
    /// read the real one from [`NetServer::local_addr`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Accepted-and-unfinished connection cap.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Per-connection read timeout (idle peers are dropped after it).
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    /// Per-connection write timeout (stuck peers are dropped after it).
    pub fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// Largest accepted frame payload, enforced before allocation.
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }
}

/// Why a network configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetConfigError {
    /// The bind address is empty.
    EmptyAddr,
    /// `max_connections` must be ≥ 1.
    ZeroMaxConnections,
    /// Timeouts must be positive (a zero timeout would make every read
    /// or write fail instantly).
    ZeroTimeout,
    /// `max_frame_bytes` must admit at least a minimal request frame.
    FrameCapTooSmall {
        /// The rejected cap.
        got: usize,
        /// The smallest workable cap.
        min: usize,
    },
}

impl std::fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetConfigError::EmptyAddr => write!(f, "bind address must not be empty"),
            NetConfigError::ZeroMaxConnections => write!(f, "max_connections must be at least 1"),
            NetConfigError::ZeroTimeout => write!(f, "timeouts must be positive"),
            NetConfigError::FrameCapTooSmall { got, min } => {
                write!(f, "max_frame_bytes {got} below the {min}-byte minimum")
            }
        }
    }
}

impl std::error::Error for NetConfigError {}

/// Fallible builder for [`NetConfig`]; obtain via [`NetConfig::builder`].
#[derive(Debug, Clone)]
pub struct NetConfigBuilder {
    addr: String,
    max_connections: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_frame_bytes: usize,
}

impl Default for NetConfigBuilder {
    fn default() -> Self {
        NetConfigBuilder {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: 1 << 20,
        }
    }
}

impl NetConfigBuilder {
    /// The `host:port` to bind; port 0 picks an ephemeral port.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Accepted-and-unfinished connection cap (≥ 1); each admitted
    /// connection gets its own thread, and over the cap clients get a
    /// typed `busy` frame.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Per-connection read timeout (positive).
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Per-connection write timeout (positive).
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Largest accepted frame payload in bytes.
    pub fn max_frame_bytes(mut self, n: usize) -> Self {
        self.max_frame_bytes = n;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<NetConfig, NetConfigError> {
        if self.addr.is_empty() {
            return Err(NetConfigError::EmptyAddr);
        }
        if self.max_connections == 0 {
            return Err(NetConfigError::ZeroMaxConnections);
        }
        if self.read_timeout.is_zero() || self.write_timeout.is_zero() {
            return Err(NetConfigError::ZeroTimeout);
        }
        // Smallest real request: `{"q":"stats"}` = 13 bytes.
        const MIN_FRAME: usize = 16;
        if self.max_frame_bytes < MIN_FRAME {
            return Err(NetConfigError::FrameCapTooSmall {
                got: self.max_frame_bytes,
                min: MIN_FRAME,
            });
        }
        Ok(NetConfig {
            addr: self.addr,
            max_connections: self.max_connections,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            max_frame_bytes: self.max_frame_bytes,
        })
    }
}

// ---------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------

/// What went wrong talking to (or running) the network front end.
#[derive(Debug)]
pub enum NetError {
    /// The listener could not bind the configured address.
    Bind(std::io::Error),
    /// The socket failed mid-conversation (includes timeouts).
    Io(std::io::Error),
    /// The server refused at the protocol level (busy, malformed frame,
    /// shutting down) — a typed [`ProtocolError`] frame.
    Protocol(ProtocolError),
    /// The server answered the query with a typed [`QueryError`] (e.g.
    /// an evicted digest window) — the same value an in-process
    /// [`crate::ServeHandle::execute`] call would return.
    Query(QueryError),
    /// The peer's response payload does not follow the protocol at all
    /// (this is probably not an edm-serve server).
    MalformedResponse,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Bind(e) => write!(f, "bind failed: {e}"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(p) => write!(f, "protocol refusal: {p}"),
            NetError::Query(q) => write!(f, "query refused: {q}"),
            NetError::MalformedResponse => write!(f, "response does not follow the protocol"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Bind(e) | NetError::Io(e) => Some(e),
            NetError::Protocol(p) => Some(p),
            NetError::Query(q) => Some(q),
            NetError::MalformedResponse => None,
        }
    }
}

// ---------------------------------------------------------------------
// server
// ---------------------------------------------------------------------

/// State shared by the acceptor and the connection threads.
struct NetShared {
    shutdown: AtomicBool,
    /// Read-half clones of every in-service connection, so shutdown can
    /// wake blocked reads without cutting their in-flight response.
    registry: Mutex<HashMap<u64, TcpStream>>,
    cfg: NetConfig,
}

/// A connection's registry entry, removed when its thread ends — by
/// return or by panic — so a finished thread holds neither socket open.
struct Registered {
    shared: Arc<NetShared>,
    id: u64,
}

impl Drop for Registered {
    fn drop(&mut self) {
        // Runs while a panicking connection thread unwinds, so it must not
        // panic itself; a map insert or remove never leaves it invalid.
        let mut registry = self.shared.registry.lock().unwrap_or_else(PoisonError::into_inner);
        registry.remove(&self.id);
    }
}

/// A running TCP front end over one [`crate::ServeHandle`].
///
/// One acceptor thread, which spawns one thread per admitted connection;
/// see the [module docs](self) for the full operational contract.
/// Dropping the server without [`NetServer::shutdown`] performs the same
/// graceful shutdown.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the configured address and starts serving `handle`'s query
    /// surface. The handle is cloned per connection thread; counters flow
    /// into the same [`crate::ServeStats`] as in-process reads.
    pub fn bind<P, M>(handle: ServeHandle<P, M>, cfg: NetConfig) -> Result<NetServer, NetError>
    where
        P: WirePoint + GridCoords + Send + Sync + 'static,
        M: Metric<P> + Clone + Send + 'static,
    {
        let listener = TcpListener::bind(cfg.addr()).map_err(NetError::Bind)?;
        let local_addr = listener.local_addr().map_err(NetError::Bind)?;
        let shared = Arc::new(NetShared {
            shutdown: AtomicBool::new(false),
            registry: Mutex::new(HashMap::new()),
            cfg,
        });

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("edm-net-acceptor".into())
            .spawn(move || {
                let _guard = NetThreadGuard::enter();
                acceptor_loop(listener, handle, acceptor_shared);
            })
            .expect("spawn edm-net acceptor thread");

        Ok(NetServer { local_addr, shared, acceptor: Some(acceptor) })
    }

    /// The actually-bound address — read the real port here after
    /// binding `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// writing their response, answer connections admitted as it began
    /// with a typed `shutting_down` frame, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.shutdown.store(true, SeqCst);
        // Wake the acceptor out of accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        // Wake connection threads blocked waiting for a peer's *next*
        // request: shutting down only the read half turns their pending
        // read into EOF while an in-flight response can still be written.
        for stream in self.shared.registry.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // The acceptor joins every connection thread before it returns.
        let _ = acceptor.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn acceptor_loop<P, M>(listener: TcpListener, handle: ServeHandle<P, M>, shared: Arc<NetShared>)
where
    P: WirePoint + GridCoords + Send + Sync + 'static,
    M: Metric<P> + Clone + Send + 'static,
{
    let mut next_id: u64 = 0;
    // Connection threads not yet seen finished: their number is the live
    // count the cap is checked against.
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(SeqCst) {
            // The wake-up connection (or a late client); either way the
            // server no longer answers.
            break;
        }
        // A finished thread has already closed both of its sockets, so
        // the join does not block; a panic it ended with stays there.
        for finished in connections.extract_if(.., |t| t.is_finished()) {
            let _ = finished.join();
        }
        let c = handle.counters();
        if connections.len() >= shared.cfg.max_connections {
            c.add(&c.net_rejected_connections, 1);
            let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
            refuse(
                &stream,
                ProtocolError::Busy { max_connections: shared.cfg.max_connections as u64 },
            );
            continue;
        }
        c.add(&c.net_connections, 1);
        let id = next_id;
        next_id += 1;
        // Register a clone so shutdown can wake a blocked read; if the
        // clone fails the connection just won't be woken early.
        if let Ok(clone) = stream.try_clone() {
            shared.registry.lock().unwrap().insert(id, clone);
        }
        let registered = Registered { shared: Arc::clone(&shared), id };
        let handle = handle.clone();
        // If the spawn fails the closure is dropped: the connection
        // closes and `registered` frees its entry.
        let spawned =
            std::thread::Builder::new().name(format!("edm-net-conn-{id}")).spawn(move || {
                let _guard = NetThreadGuard::enter();
                let shared = &registered.shared;
                if shared.shutdown.load(SeqCst) {
                    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
                    refuse(&stream, ProtocolError::ShuttingDown);
                    return;
                }
                serve_connection(&stream, &handle, shared);
            });
        if let Ok(thread) = spawned {
            connections.push(thread);
        }
    }
    // Close the listener first, so clients connecting during the drain
    // are refused rather than left in its backlog.
    drop(listener);
    for thread in connections {
        let _ = thread.join();
    }
}

/// Answers one typed refusal frame on a connection that is being dropped
/// (best effort: the peer may already be gone).
fn refuse(mut stream: &TcpStream, refusal: ProtocolError) {
    let _ = send_frame(&mut stream, &mut Vec::new(), |out| write_result(out, &Err(refusal)));
}

/// Serves one connection to completion: sequential request frames, one
/// response frame each, until EOF, timeout, shutdown, or an unskippable
/// protocol error.
fn serve_connection<P, M>(stream: &TcpStream, handle: &ServeHandle<P, M>, shared: &NetShared)
where
    P: WirePoint + GridCoords,
    M: Metric<P>,
{
    if stream.set_read_timeout(Some(shared.cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(shared.cfg.write_timeout)).is_err()
    {
        return;
    }
    // Request/response traffic is all small frames; Nagle batching only
    // adds delayed-ACK stalls to it (best effort — serving still works
    // without the option, just slower).
    let _ = stream.set_nodelay(true);
    let c = handle.counters();
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    // Every response is encoded into this one buffer, behind its prefix.
    let mut frame = Vec::new();
    loop {
        if shared.shutdown.load(SeqCst) {
            // The in-flight request (if any) was already answered below;
            // stop before reading a new one.
            return;
        }
        let result: WireResult = match read_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(payload) => match decode_query::<P>(&payload) {
                Ok(query) => {
                    c.add(&c.net_queries, 1);
                    let answer = handle.execute(&query);
                    if answer.is_err() {
                        c.add(&c.net_query_errors, 1);
                    }
                    Ok(answer)
                }
                Err(protocol) => {
                    c.add(&c.net_protocol_errors, 1);
                    Err(protocol)
                }
            },
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => return, // timeout, reset, truncation
            Err(FrameError::Oversized { declared }) => {
                c.add(&c.net_protocol_errors, 1);
                // The declared payload is still on the wire and may be
                // huge — answer the typed refusal, then close rather
                // than skip it.
                let refusal = ProtocolError::OversizedFrame {
                    declared,
                    max: shared.cfg.max_frame_bytes as u64,
                };
                let _ = send_frame(&mut writer, &mut frame, |out| write_result(out, &Err(refusal)));
                return;
            }
        };
        if send_frame(&mut writer, &mut frame, |out| write_result(out, &result)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// client
// ---------------------------------------------------------------------

/// A minimal blocking client for the wire protocol — one connection,
/// sequential queries. Used by the loopback tests, the benches, and the
/// `serve_net` example; also a reference implementation for clients in
/// other languages (the whole protocol is [`wire`]).
pub struct NetClient {
    /// Responses are read through this buffer, so one that fits it
    /// arrives in one `read` call; requests go to the inner stream.
    reader: BufReader<TcpStream>,
    /// Request frame buffer, reused by every [`NetClient::query`].
    frame: Vec<u8>,
    max_frame_bytes: usize,
}

impl NetClient {
    /// Connects with 30 s read / 10 s write timeouts and the default
    /// 1 MiB frame cap.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        Self::connect_with(addr, Duration::from_secs(30), Duration::from_secs(10), 1 << 20)
    }

    /// Connects with explicit timeouts and frame cap.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        write_timeout: Duration,
        max_frame_bytes: usize,
    ) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream.set_read_timeout(Some(read_timeout)).map_err(NetError::Io)?;
        stream.set_write_timeout(Some(write_timeout)).map_err(NetError::Io)?;
        // Small request frames + Nagle = delayed-ACK stalls; disable it
        // (best effort) on the client side too.
        let _ = stream.set_nodelay(true);
        Ok(NetClient { reader: BufReader::new(stream), frame: Vec::new(), max_frame_bytes })
    }

    /// Sends one raw request payload and returns the raw response
    /// payload — the byte-level exchange the loopback equivalence test
    /// compares against a local [`wire::encode_result`].
    pub fn exchange(&mut self, request_payload: &[u8]) -> Result<Vec<u8>, NetError> {
        write_frame(&mut self.reader.get_ref(), request_payload).map_err(NetError::Io)?;
        self.receive()
    }

    /// Reads one response frame.
    fn receive(&mut self) -> Result<Vec<u8>, NetError> {
        match read_frame(&mut self.reader, self.max_frame_bytes) {
            Ok(payload) => Ok(payload),
            Err(FrameError::Closed) => Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(FrameError::Oversized { declared }) => {
                Err(NetError::Protocol(ProtocolError::OversizedFrame {
                    declared,
                    max: self.max_frame_bytes as u64,
                }))
            }
            Err(FrameError::Io(e)) => Err(NetError::Io(e)),
        }
    }

    /// Asks one typed [`Query`] and decodes the typed answer. Query
    /// refusals surface as [`NetError::Query`] — the same value an
    /// in-process `execute` would return — and protocol refusals as
    /// [`NetError::Protocol`].
    pub fn query<P: WirePoint>(&mut self, q: &Query<P>) -> Result<QueryResponse, NetError> {
        send_frame(&mut self.reader.get_ref(), &mut self.frame, |out| write_query(out, q))
            .map_err(NetError::Io)?;
        let response = self.receive()?;
        match decode_result(&response) {
            Some(Ok(Ok(resp))) => Ok(resp),
            Some(Ok(Err(query_err))) => Err(NetError::Query(query_err)),
            Some(Err(protocol)) => Err(NetError::Protocol(protocol)),
            None => Err(NetError::MalformedResponse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_config_builder_validates_every_knob() {
        let cfg = NetConfig::builder().build().unwrap();
        assert_eq!(cfg.addr(), "127.0.0.1:0");
        assert_eq!(cfg.max_connections(), 64);
        assert_eq!(cfg.max_frame_bytes(), 1 << 20);
        assert_eq!(NetConfig::builder().addr("").build(), Err(NetConfigError::EmptyAddr));
        assert_eq!(
            NetConfig::builder().max_connections(0).build(),
            Err(NetConfigError::ZeroMaxConnections)
        );
        assert_eq!(
            NetConfig::builder().read_timeout(Duration::ZERO).build(),
            Err(NetConfigError::ZeroTimeout)
        );
        assert_eq!(
            NetConfig::builder().write_timeout(Duration::ZERO).build(),
            Err(NetConfigError::ZeroTimeout)
        );
        assert_eq!(
            NetConfig::builder().max_frame_bytes(8).build(),
            Err(NetConfigError::FrameCapTooSmall { got: 8, min: 16 })
        );
    }

    #[test]
    fn net_errors_display_and_chain() {
        let e = NetError::Protocol(ProtocolError::ShuttingDown);
        assert!(e.to_string().contains("shutting down"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(NetError::MalformedResponse.to_string().contains("protocol"));
    }
}
