//! The wire codec: length-prefixed frames and the JSON encoding of
//! [`Query`] / [`QueryResponse`] / [`QueryError`].
//!
//! # Frame format
//!
//! ```text
//! +----------------------+----------------------------+
//! | length: u32, big-end | payload: `length` bytes of |
//! | (payload bytes only) | UTF-8 JSON                 |
//! +----------------------+----------------------------+
//! ```
//!
//! One request frame carries one query object; the server answers with
//! exactly one response frame. Length prefixes above the configured cap
//! ([`crate::net::NetConfig`] `max_frame_bytes`) are refused *before*
//! any allocation — a hostile 4 GiB prefix costs the server nothing.
//!
//! # Request payloads
//!
//! `{"q": <name>, …args}` — the name is [`Query::name`]:
//!
//! ```json
//! {"q":"cluster_of","point":[0.5,1.0]}
//! {"q":"digest_between","from":3,"to":7}
//! {"q":"stats"}
//! ```
//!
//! # Response payloads
//!
//! `{"ok":{"resp":<name>, …fields}}` on success, `{"err":{…}}` on a
//! typed refusal. Query-layer refusals carry `"code":"evolve"` plus the
//! structured [`EvolveError`], or `"code":"dimension_mismatch"` with the
//! `expected` and `got` dimensionalities of a `cluster_of` point;
//! transport-layer refusals (malformed frame, connection cap, shutdown)
//! use the other [`ProtocolError`] codes. Encoding is deterministic
//! (fixed field order, shortest-round-trip floats), so equal values
//! encode to equal bytes — the loopback equivalence test compares raw
//! frames.
//!
//! # Cost
//!
//! Encoding writes each field straight into one byte buffer; decoding
//! parses the payload once into one flat document (see [`super::json`]).
//! Both are linear in the frame's bytes, so the largest frame the cap
//! admits costs a connection thread milliseconds, whatever it holds.

use std::io::{self, Read, Write};
use std::time::Duration;

use edm_core::{EvolutionDigest, EvolveError, MassDrift, MergeEdge, SplitEdge};

use super::json::{Document, Json, Writer};
use crate::query::{Assignment, DimensionMismatch, HealthStatus, Query, QueryError, QueryResponse};
use crate::stats::ServeStats;

/// Payloads that can cross the wire as a flat `f64` coordinate list.
///
/// The engine is generic over payload types; the network protocol is
/// not — it speaks JSON arrays of numbers. Implementing this trait is
/// what opts a payload type into [`crate::net::NetServer`].
pub trait WirePoint: Sized {
    /// The coordinates to send.
    fn to_wire(&self) -> Vec<f64>;
    /// Rebuilds the payload from received coordinates; `None` refuses
    /// (empty vector, wrong arity for the type, …).
    fn from_wire(coords: Vec<f64>) -> Option<Self>;
}

impl WirePoint for edm_common::point::DenseVector {
    fn to_wire(&self) -> Vec<f64> {
        self.coords().to_vec()
    }

    fn from_wire(coords: Vec<f64>) -> Option<Self> {
        if coords.is_empty() || coords.iter().any(|c| !c.is_finite()) {
            return None;
        }
        Some(edm_common::point::DenseVector::new(coords))
    }
}

/// A typed protocol-level refusal — what the server sends when it could
/// not even reach [`crate::ServeHandle::execute`], and what
/// [`crate::net::NetClient`] surfaces alongside query errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame's length prefix exceeded the server's cap.
    OversizedFrame {
        /// Declared payload length.
        declared: u64,
        /// The server's cap.
        max: u64,
    },
    /// The payload was not valid UTF-8 JSON.
    BadJson {
        /// Parser diagnostic.
        detail: String,
    },
    /// The JSON was well-formed but not a known query (bad `"q"` tag,
    /// missing or ill-typed argument).
    BadQuery {
        /// What was wrong.
        detail: String,
    },
    /// The server is at its connection cap; retry later.
    Busy {
        /// The configured cap the connection ran into.
        max_connections: u64,
    },
    /// The server is shutting down and no longer answers.
    ShuttingDown,
}

impl ProtocolError {
    /// Stable wire code of the variant.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::OversizedFrame { .. } => "oversized_frame",
            ProtocolError::BadJson { .. } => "bad_json",
            ProtocolError::BadQuery { .. } => "bad_query",
            ProtocolError::Busy { .. } => "busy",
            ProtocolError::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::OversizedFrame { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::BadJson { detail } => write!(f, "payload is not valid JSON: {detail}"),
            ProtocolError::BadQuery { detail } => write!(f, "not a known query: {detail}"),
            ProtocolError::Busy { max_connections } => {
                write!(f, "server at its {max_connections}-connection cap")
            }
            ProtocolError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Everything a response frame can carry: the query's own result, or a
/// protocol-level refusal.
pub type WireResult = Result<Result<QueryResponse, QueryError>, ProtocolError>;

// ---------------------------------------------------------------------
// frame I/O
// ---------------------------------------------------------------------

/// What went wrong reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly before a length prefix.
    Closed,
    /// The declared length exceeds `max` — refuse before allocating.
    Oversized {
        /// Declared payload length.
        declared: u64,
    },
    /// The stream errored or closed mid-frame (includes read timeouts).
    Io(io::Error),
}

/// Reads one length-prefixed frame, enforcing the size cap before any
/// payload allocation.
///
/// Through a buffered reader (as [`crate::net::NetServer`] and
/// [`crate::net::NetClient`] read), a frame that fits the buffer costs one
/// `read` call: the prefix read fills the buffer with the payload too.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    // A clean EOF before any prefix byte = peer is done; mid-prefix or
    // mid-payload EOF is an I/O error (truncated frame). A signal
    // interrupting the wait is retried, not taken for a dead peer.
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(len_buf) as u64;
    if declared > max_bytes as u64 {
        return Err(FrameError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes one length-prefixed frame around an already-encoded payload.
/// The payload is copied behind the prefix so the frame goes out in one
/// write. The server and [`crate::net::NetClient::query`] encode straight
/// into their frame buffers instead.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame(w, &mut Vec::new(), |out| out.extend_from_slice(payload))
}

/// Encodes one message into `frame` behind a reserved length prefix,
/// fills the prefix in, and writes the frame in one `write_all`. `frame`
/// is cleared first, so a connection reuses one buffer for every frame.
///
/// One write matters: prefix and payload written separately would go out
/// as separate TCP segments, and Nagle's algorithm holding the second
/// until the first is ACKed (itself delayed ~40 ms by the peer) turns
/// every frame into a stall. `NetServer`/`NetClient` additionally set
/// `TCP_NODELAY`, but coalescing keeps the codec fast even on raw streams
/// that don't.
pub(crate) fn send_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    encode(frame);
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(frame)?;
    w.flush()
}

// ---------------------------------------------------------------------
// query encoding
// ---------------------------------------------------------------------

/// Encodes one query as a request payload.
pub fn encode_query<P: WirePoint>(q: &Query<P>) -> Vec<u8> {
    let mut out = Vec::new();
    write_query(&mut out, q);
    out
}

/// Appends the request payload of `q` to `out`.
pub(crate) fn write_query<P: WirePoint>(out: &mut Vec<u8>, q: &Query<P>) {
    Writer::new(out).obj(|w| {
        w.key("q").str(q.name());
        match q {
            Query::ClusterOf { point } => w.key("point").f64s(&point.to_wire()),
            Query::DigestSince { from } => w.key("from").u64(*from),
            Query::DigestBetween { from, to } => {
                w.key("from").u64(*from);
                w.key("to").u64(*to);
            }
            _ => {}
        }
    });
}

/// Longest prefix of an unknown query tag, in bytes, that the error
/// echoes back. The error frame carries its detail twice (`message` and
/// `detail`), so echoing a whole 1 MiB tag would cost a ~2 MiB reply.
const TAG_ECHO_MAX: usize = 64;

/// The `unknown query` detail: the tag quoted in full when it is short,
/// else its first [`TAG_ECHO_MAX`] bytes (cut back to a char boundary)
/// followed by a marker giving the full length.
fn unknown_query_detail(tag: &str) -> String {
    if tag.len() <= TAG_ECHO_MAX {
        return format!("unknown query {tag:?}");
    }
    let mut end = TAG_ECHO_MAX;
    while !tag.is_char_boundary(end) {
        end -= 1;
    }
    format!("unknown query {:?}... (truncated, {} bytes)", &tag[..end], tag.len())
}

/// Decodes a request payload into a query, or says precisely why not.
pub fn decode_query<P: WirePoint>(payload: &[u8]) -> Result<Query<P>, ProtocolError> {
    let doc =
        Document::parse(payload).map_err(|e| ProtocolError::BadJson { detail: e.to_string() })?;
    let v = doc.root();
    let bad = |detail: &str| ProtocolError::BadQuery { detail: detail.to_string() };
    let tag = v.get("q").and_then(Json::as_str).ok_or_else(|| bad("missing \"q\" tag"))?;
    let u64_field = |name: &str| {
        v.get(name).and_then(Json::as_u64).ok_or_else(|| bad(&format!("missing u64 \"{name}\"")))
    };
    match tag {
        "cluster_of" => {
            let coords = v
                .get("point")
                .and_then(Json::as_f64_arr)
                .ok_or_else(|| bad("missing numeric \"point\" array"))?;
            let point =
                P::from_wire(coords).ok_or_else(|| bad("\"point\" rejected by payload type"))?;
            Ok(Query::ClusterOf { point })
        }
        "n_clusters" => Ok(Query::NClusters),
        "decision_graph" => Ok(Query::DecisionGraph),
        "digest_since" => Ok(Query::DigestSince { from: u64_field("from")? }),
        "digest_between" => {
            Ok(Query::DigestBetween { from: u64_field("from")?, to: u64_field("to")? })
        }
        "generation" => Ok(Query::Generation),
        "snapshot_age" => Ok(Query::SnapshotAge),
        "stats" => Ok(Query::Stats),
        "health" => Ok(Query::Health),
        other => Err(bad(&unknown_query_detail(other))),
    }
}

// ---------------------------------------------------------------------
// response encoding
// ---------------------------------------------------------------------

fn write_digest(w: &mut Writer<'_>, d: &EvolutionDigest) {
    w.key("from_generation").u64(d.from_generation);
    w.key("to_generation").u64(d.to_generation);
    w.key("from_t").f64(d.from_t);
    w.key("to_t").f64(d.to_t);
    w.key("births").u64s(&d.births);
    w.key("deaths").u64s(&d.deaths);
    w.key("merges").arr(&d.merges, |w, m| {
        w.obj(|w| {
            w.key("t").f64(m.t);
            w.key("from").u64s(&m.from);
            w.key("into").u64(m.into);
        })
    });
    w.key("splits").arr(&d.splits, |w, s| {
        w.obj(|w| {
            w.key("t").f64(s.t);
            w.key("from").u64(s.from);
            w.key("into").u64s(&s.into);
        })
    });
    w.key("adjustments").u64(d.adjustments);
    w.key("drifts").arr(&d.drifts, |w, dr| {
        w.obj(|w| {
            w.key("cluster").u64(dr.cluster);
            w.key("from_mass").f64(dr.from_mass);
            w.key("to_mass").f64(dr.to_mass);
        })
    });
}

fn digest_from_json(v: Json<'_, '_>) -> Option<EvolutionDigest> {
    let merges = v
        .get("merges")?
        .elements()?
        .map(|m| {
            Some(MergeEdge {
                t: m.get("t")?.as_f64()?,
                from: m.get("from")?.as_u64_arr()?,
                into: m.get("into")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let splits = v
        .get("splits")?
        .elements()?
        .map(|s| {
            Some(SplitEdge {
                t: s.get("t")?.as_f64()?,
                from: s.get("from")?.as_u64()?,
                into: s.get("into")?.as_u64_arr()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let drifts = v
        .get("drifts")?
        .elements()?
        .map(|d| {
            Some(MassDrift {
                cluster: d.get("cluster")?.as_u64()?,
                from_mass: d.get("from_mass")?.as_f64()?,
                to_mass: d.get("to_mass")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(EvolutionDigest {
        from_generation: v.get("from_generation")?.as_u64()?,
        to_generation: v.get("to_generation")?.as_u64()?,
        from_t: v.get("from_t")?.as_f64()?,
        to_t: v.get("to_t")?.as_f64()?,
        births: v.get("births")?.as_u64_arr()?,
        deaths: v.get("deaths")?.as_u64_arr()?,
        merges,
        splits,
        adjustments: v.get("adjustments")?.as_u64()?,
        drifts,
    })
}

fn write_stats(w: &mut Writer<'_>, s: &ServeStats) {
    w.key("generation").u64(s.generation);
    w.key("snapshot_age_us").u64(s.snapshot_age.as_micros() as u64);
    w.key("queue_depth").u64(s.queue_depth as u64);
    w.key("queue_depth_hwm").u64(s.queue_depth_hwm as u64);
    w.key("enqueued_points").u64(s.enqueued_points);
    w.key("ingested_points").u64(s.ingested_points);
    w.key("dropped_points").u64(s.dropped_points);
    w.key("rejected_points").u64(s.rejected_points);
    w.key("reads_cluster_of").u64(s.reads_cluster_of);
    w.key("reads_n_clusters").u64(s.reads_n_clusters);
    w.key("reads_decision_graph").u64(s.reads_decision_graph);
    w.key("reads_snapshot").u64(s.reads_snapshot);
    w.key("reads_digest").u64(s.reads_digest);
    w.key("net_connections").u64(s.net_connections);
    w.key("net_connections_rejected").u64(s.net_connections_rejected);
    w.key("net_queries").u64(s.net_queries);
    w.key("net_query_errors").u64(s.net_query_errors);
    w.key("net_protocol_errors").u64(s.net_protocol_errors);
    w.key("poisoned").bool(s.poisoned);
}

fn stats_from_json(v: Json<'_, '_>) -> Option<ServeStats> {
    Some(ServeStats {
        generation: v.get("generation")?.as_u64()?,
        snapshot_age: Duration::from_micros(v.get("snapshot_age_us")?.as_u64()?),
        queue_depth: v.get("queue_depth")?.as_u64()? as usize,
        queue_depth_hwm: v.get("queue_depth_hwm")?.as_u64()? as usize,
        enqueued_points: v.get("enqueued_points")?.as_u64()?,
        ingested_points: v.get("ingested_points")?.as_u64()?,
        dropped_points: v.get("dropped_points")?.as_u64()?,
        rejected_points: v.get("rejected_points")?.as_u64()?,
        reads_cluster_of: v.get("reads_cluster_of")?.as_u64()?,
        reads_n_clusters: v.get("reads_n_clusters")?.as_u64()?,
        reads_decision_graph: v.get("reads_decision_graph")?.as_u64()?,
        reads_snapshot: v.get("reads_snapshot")?.as_u64()?,
        reads_digest: v.get("reads_digest")?.as_u64()?,
        net_connections: v.get("net_connections")?.as_u64()?,
        net_connections_rejected: v.get("net_connections_rejected")?.as_u64()?,
        net_queries: v.get("net_queries")?.as_u64()?,
        net_query_errors: v.get("net_query_errors")?.as_u64()?,
        net_protocol_errors: v.get("net_protocol_errors")?.as_u64()?,
        poisoned: v.get("poisoned")?.as_bool()?,
    })
}

fn write_response(w: &mut Writer<'_>, r: &QueryResponse) {
    w.key("resp").str(r.name());
    match r {
        QueryResponse::ClusterOf(a) => w.key("outcome").obj(|w| match a {
            Assignment::Member { cluster, distance } => {
                w.key("kind").str("member");
                w.key("cluster").u64(*cluster);
                w.key("distance").f64(*distance);
            }
            Assignment::EmptySnapshot => w.key("kind").str("empty_snapshot"),
            Assignment::OutOfRadius { nearest, r } => {
                w.key("kind").str("out_of_radius");
                w.key("nearest").f64(*nearest);
                w.key("r").f64(*r);
            }
        }),
        QueryResponse::NClusters(n) => w.key("n").u64(*n as u64),
        QueryResponse::DecisionGraph { rho, delta } => {
            w.key("rho").f64s(rho);
            w.key("delta").f64s(delta);
        }
        QueryResponse::Digest(d) => w.key("digest").obj(|w| write_digest(w, d)),
        QueryResponse::Generation(g) => w.key("generation").u64(*g),
        QueryResponse::SnapshotAge(age) => w.key("micros").u64(age.as_micros() as u64),
        QueryResponse::Stats(s) => w.key("stats").obj(|w| write_stats(w, s)),
        QueryResponse::Health(HealthStatus::Ok) => w.key("ok").bool(true),
        QueryResponse::Health(HealthStatus::WriterPanicked { message }) => {
            w.key("ok").bool(false);
            w.key("message").str(message);
        }
    }
}

fn response_from_json(v: Json<'_, '_>) -> Option<QueryResponse> {
    match v.get("resp")?.as_str()? {
        "cluster_of" => {
            let o = v.get("outcome")?;
            let a = match o.get("kind")?.as_str()? {
                "member" => Assignment::Member {
                    cluster: o.get("cluster")?.as_u64()?,
                    distance: o.get("distance")?.as_f64()?,
                },
                "empty_snapshot" => Assignment::EmptySnapshot,
                "out_of_radius" => Assignment::OutOfRadius {
                    // An overflowed distance is infinite and crosses as
                    // `null` (see the `json` module docs).
                    nearest: o
                        .get("nearest")
                        .and_then(|n| n.as_f64().or(n.is_null().then_some(f64::INFINITY)))?,
                    r: o.get("r")?.as_f64()?,
                },
                _ => return None,
            };
            Some(QueryResponse::ClusterOf(a))
        }
        "n_clusters" => Some(QueryResponse::NClusters(v.get("n")?.as_u64()? as usize)),
        "decision_graph" => Some(QueryResponse::DecisionGraph {
            rho: v.get("rho")?.as_f64_arr()?,
            delta: v.get("delta")?.as_f64_arr()?,
        }),
        "digest" => Some(QueryResponse::Digest(digest_from_json(v.get("digest")?)?)),
        "generation" => Some(QueryResponse::Generation(v.get("generation")?.as_u64()?)),
        "snapshot_age" => {
            Some(QueryResponse::SnapshotAge(Duration::from_micros(v.get("micros")?.as_u64()?)))
        }
        "stats" => Some(QueryResponse::Stats(stats_from_json(v.get("stats")?)?)),
        "health" => {
            let ok = v.get("ok")?.as_bool()?;
            Some(QueryResponse::Health(if ok {
                HealthStatus::Ok
            } else {
                HealthStatus::WriterPanicked { message: v.get("message")?.as_str()?.to_string() }
            }))
        }
        _ => None,
    }
}

fn write_evolve(w: &mut Writer<'_>, e: &EvolveError) {
    let kind = match e {
        EvolveError::EventsLost { .. } => "events_lost",
        EvolveError::UnknownCluster { .. } => "unknown_cluster",
        EvolveError::NoGenerations => "no_generations",
        EvolveError::FutureGeneration { .. } => "future_generation",
        EvolveError::EvictedGeneration { .. } => "evicted_generation",
        EvolveError::InvertedWindow { .. } => "inverted_window",
        EvolveError::LossyWindow { .. } => "lossy_window",
    };
    w.key("kind").str(kind);
    match *e {
        EvolveError::NoGenerations => {}
        EvolveError::EventsLost { lost } => w.key("lost").u64(lost),
        EvolveError::UnknownCluster { cluster } => w.key("cluster").u64(cluster),
        EvolveError::FutureGeneration { requested, latest } => {
            w.key("requested").u64(requested);
            w.key("latest").u64(latest);
        }
        EvolveError::EvictedGeneration { requested, oldest } => {
            w.key("requested").u64(requested);
            w.key("oldest").u64(oldest);
        }
        EvolveError::InvertedWindow { from, to } => {
            w.key("from").u64(from);
            w.key("to").u64(to);
        }
        EvolveError::LossyWindow { from, to, lost } => {
            w.key("from").u64(from);
            w.key("to").u64(to);
            w.key("lost").u64(lost);
        }
    }
}

fn evolve_from_json(v: Json<'_, '_>) -> Option<EvolveError> {
    let u = |name: &str| v.get(name).and_then(Json::as_u64);
    Some(match v.get("kind")?.as_str()? {
        "events_lost" => EvolveError::EventsLost { lost: u("lost")? },
        "unknown_cluster" => EvolveError::UnknownCluster { cluster: u("cluster")? },
        "no_generations" => EvolveError::NoGenerations,
        "future_generation" => {
            EvolveError::FutureGeneration { requested: u("requested")?, latest: u("latest")? }
        }
        "evicted_generation" => {
            EvolveError::EvictedGeneration { requested: u("requested")?, oldest: u("oldest")? }
        }
        "inverted_window" => EvolveError::InvertedWindow { from: u("from")?, to: u("to")? },
        "lossy_window" => {
            EvolveError::LossyWindow { from: u("from")?, to: u("to")?, lost: u("lost")? }
        }
        _ => return None,
    })
}

/// Encodes a full wire result (query outcome or protocol refusal) as a
/// response payload.
pub fn encode_result(r: &WireResult) -> Vec<u8> {
    let mut out = Vec::new();
    write_result(&mut out, r);
    out
}

/// Appends the response payload of `r` to `out`.
pub(crate) fn write_result(out: &mut Vec<u8>, r: &WireResult) {
    Writer::new(out).obj(|w| match r {
        Ok(Ok(resp)) => w.key("ok").obj(|w| write_response(w, resp)),
        Ok(Err(e)) => w.key("err").obj(|w| {
            w.key("code").str(e.code());
            match e {
                QueryError::Evolve(e) => w.key("evolve").obj(|w| write_evolve(w, e)),
                QueryError::DimensionMismatch(m) => {
                    w.key("expected").u64(m.expected as u64);
                    w.key("got").u64(m.got as u64);
                }
            }
        }),
        Err(p) => w.key("err").obj(|w| {
            w.key("code").str(p.code());
            w.key("message").str(&p.to_string());
            match p {
                ProtocolError::OversizedFrame { declared, max } => {
                    w.key("declared").u64(*declared);
                    w.key("max").u64(*max);
                }
                ProtocolError::Busy { max_connections } => {
                    w.key("max_connections").u64(*max_connections);
                }
                ProtocolError::BadJson { detail } | ProtocolError::BadQuery { detail } => {
                    w.key("detail").str(detail);
                }
                ProtocolError::ShuttingDown => {}
            }
        }),
    });
}

/// Decodes a response payload back into the full wire result. `None`
/// means the payload does not follow the protocol at all (a client
/// talking to something that is not this server).
pub fn decode_result(payload: &[u8]) -> Option<WireResult> {
    let doc = Document::parse(payload).ok()?;
    let v = doc.root();
    if let Some(ok) = v.get("ok") {
        return Some(Ok(Ok(response_from_json(ok)?)));
    }
    let err = v.get("err")?;
    let code = err.get("code")?.as_str()?;
    let detail = || err.get("detail").and_then(Json::as_str).unwrap_or("").to_string();
    let usize_field = |name: &str| usize::try_from(err.get(name)?.as_u64()?).ok();
    Some(match code {
        "evolve" => Ok(Err(QueryError::Evolve(evolve_from_json(err.get("evolve")?)?))),
        "dimension_mismatch" => Ok(Err(QueryError::DimensionMismatch(DimensionMismatch {
            expected: usize_field("expected")?,
            got: usize_field("got")?,
        }))),
        "oversized_frame" => Err(ProtocolError::OversizedFrame {
            declared: err.get("declared")?.as_u64()?,
            max: err.get("max")?.as_u64()?,
        }),
        "bad_json" => Err(ProtocolError::BadJson { detail: detail() }),
        "bad_query" => Err(ProtocolError::BadQuery { detail: detail() }),
        "busy" => {
            Err(ProtocolError::Busy { max_connections: err.get("max_connections")?.as_u64()? })
        }
        "shutting_down" => Err(ProtocolError::ShuttingDown),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::point::DenseVector;

    #[test]
    fn frame_round_trip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"hello");
        // Same frame against a 4-byte cap: refused before allocation.
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor, 4), Err(FrameError::Oversized { declared: 5 })));
        // Clean EOF = Closed; truncated payload = Io.
        assert!(matches!(read_frame(&mut &[][..], 1024), Err(FrameError::Closed)));
        let truncated = &buf[..6];
        assert!(matches!(read_frame(&mut &truncated[..], 1024), Err(FrameError::Io(_))));
    }

    /// A stream that fails its first read with `Interrupted` and then
    /// returns at most `chunk` bytes per read.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
        interrupted: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.chunk).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn interrupted_and_short_reads_are_retried() {
        // A signal landing while a reader waits for the next prefix is not
        // a dead peer; nor are prefixes and payloads split across reads.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"hello").unwrap();
        let mut slow = Trickle { data: frame, at: 0, chunk: 1, interrupted: false };
        assert_eq!(read_frame(&mut slow, 1024).unwrap(), b"hello");
    }

    #[test]
    fn every_query_variant_round_trips() {
        let queries: Vec<Query<DenseVector>> = vec![
            Query::ClusterOf { point: DenseVector::from([1.5, -2.5, 0.0]) },
            Query::NClusters,
            Query::DecisionGraph,
            Query::DigestSince { from: 7 },
            Query::DigestBetween { from: 3, to: u64::MAX },
            Query::Generation,
            Query::SnapshotAge,
            Query::Stats,
            Query::Health,
        ];
        for q in queries {
            let enc = encode_query(&q);
            let back: Query<DenseVector> = decode_query(&enc).unwrap();
            assert_eq!(back, q);
        }
    }

    #[test]
    fn bad_requests_are_typed() {
        type Q = Query<DenseVector>;
        let bad_json: Result<Q, _> = decode_query(b"{not json");
        assert_eq!(bad_json.unwrap_err().code(), "bad_json");
        let unknown: Result<Q, _> = decode_query(br#"{"q":"flush_all"}"#);
        assert_eq!(
            unknown.unwrap_err(),
            ProtocolError::BadQuery { detail: "unknown query \"flush_all\"".into() }
        );
        // A huge unknown tag is echoed as a short, marked prefix: the
        // error frame stays small instead of carrying the tag twice.
        // One ASCII byte first puts byte 64 inside a two-byte 'é'.
        let huge = format!(r#"{{"q":"a{}"}}"#, "é".repeat(1 << 19));
        let err = decode_query::<DenseVector>(huge.as_bytes()).unwrap_err();
        let ProtocolError::BadQuery { detail } = &err else { panic!("{err:?}") };
        assert!(detail.starts_with("unknown query \"aé"), "{detail}");
        assert!(detail.ends_with("\"... (truncated, 1048577 bytes)"), "{detail}");
        assert_eq!(detail.matches('é').count(), 31, "cut back to a char boundary: {detail}");
        let frame = encode_result(&Err(err));
        assert!(frame.len() < 1024, "error frame is {} bytes", frame.len());
        let missing_arg: Result<Q, _> = decode_query(br#"{"q":"digest_since"}"#);
        assert_eq!(missing_arg.unwrap_err().code(), "bad_query");
        let empty_point: Result<Q, _> = decode_query(br#"{"q":"cluster_of","point":[]}"#);
        assert_eq!(empty_point.unwrap_err().code(), "bad_query");
        let no_tag: Result<Q, _> = decode_query(br#"{"point":[1.0]}"#);
        assert_eq!(no_tag.unwrap_err().code(), "bad_query");
    }

    #[test]
    fn results_round_trip_ok_err_and_protocol() {
        let results: Vec<WireResult> = vec![
            Ok(Ok(QueryResponse::ClusterOf(Assignment::Member { cluster: 3, distance: 0.25 }))),
            Ok(Ok(QueryResponse::ClusterOf(Assignment::EmptySnapshot))),
            Ok(Ok(QueryResponse::ClusterOf(Assignment::OutOfRadius { nearest: 9.5, r: 0.5 }))),
            Ok(Ok(QueryResponse::NClusters(42))),
            Ok(Ok(QueryResponse::DecisionGraph { rho: vec![1.0, 2.5], delta: vec![0.5, 9.0] })),
            Ok(Ok(QueryResponse::Generation(u64::MAX))),
            Ok(Ok(QueryResponse::SnapshotAge(Duration::from_micros(1234)))),
            Ok(Ok(QueryResponse::Health(HealthStatus::Ok))),
            Ok(Ok(QueryResponse::Health(HealthStatus::WriterPanicked {
                message: "boom \"quoted\"".into(),
            }))),
            Ok(Err(QueryError::Evolve(EvolveError::FutureGeneration { requested: 9, latest: 4 }))),
            Err(ProtocolError::OversizedFrame { declared: 1 << 40, max: 1 << 20 }),
            Err(ProtocolError::BadJson { detail: "x".into() }),
            Err(ProtocolError::BadQuery { detail: "y".into() }),
            Err(ProtocolError::Busy { max_connections: 64 }),
            Err(ProtocolError::ShuttingDown),
        ];
        for r in results {
            let enc = encode_result(&r);
            let back = decode_result(&enc).unwrap();
            assert_eq!(back, r);
            // Deterministic encoding: encode is a pure function of value.
            assert_eq!(encode_result(&back), enc);
        }
    }

    #[test]
    fn digest_payload_round_trips_fully() {
        let digest = EvolutionDigest {
            from_generation: 1,
            to_generation: 5,
            from_t: 0.5,
            to_t: 9.25,
            births: vec![4, 5],
            deaths: vec![1],
            merges: vec![MergeEdge { t: 1.5, from: vec![1, 2], into: 3 }],
            splits: vec![SplitEdge { t: 2.5, from: 3, into: vec![4, 5] }],
            adjustments: 17,
            drifts: vec![MassDrift { cluster: 3, from_mass: 1.25, to_mass: 8.5 }],
        };
        let r: WireResult = Ok(Ok(QueryResponse::Digest(digest)));
        let back = decode_result(&encode_result(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn dense_vector_wire_codec_guards_inputs() {
        let p = DenseVector::from([1.0, 2.0]);
        assert_eq!(DenseVector::from_wire(p.to_wire()), Some(p));
        assert_eq!(DenseVector::from_wire(vec![]), None);
        assert_eq!(DenseVector::from_wire(vec![f64::NAN]), None);
    }
}
