//! The fleet wire protocol: length-prefixed, versioned, checksummed
//! frames over [`ByteWriter`]/[`ByteReader`], hand-rolled with the same
//! discipline as the artifact store — the record bytes are part of the
//! verification contract, and *any* damage to them must surface as a
//! typed [`ProtocolError`] and a connection reset, never a panic, a hang,
//! or a silently wrong value.
//!
//! Frame layout (all words little-endian u64):
//!
//! ```text
//! MAGIC | VERSION | kind | payload_len_bytes | checksum64(words 0..4 ‖ payload) | payload…
//! ```
//!
//! The payload is itself a [`ByteWriter`] stream, so its length is always
//! a multiple of 8; a frame whose declared length is misaligned, above
//! [`MAX_PAYLOAD`], or checksummed wrong is rejected before a single
//! payload word is interpreted. Message decoding then validates every
//! tag, every declared count against the bytes actually present
//! ([`ByteReader::get_len`]), and that the payload is fully consumed —
//! trailing garbage is an error, not ignored.
//!
//! Frames are self-delimiting, so a sender may queue several whole frames
//! ([`push_message`]) and send them in one write, and a receiver may read
//! through a buffer: [`read_frame`] reads a frame split across buffer
//! fills exactly as one that is not.

use std::io::{self, Read, Write};
use std::time::Duration;

use neurofail_inject::sampler::FaultSpec;
use neurofail_inject::{
    plan::{NeuronFault, NeuronSite, SynapseFault, SynapseSite, SynapseTarget},
    ByzantineStrategy, CampaignConfig, InjectionPlan, TrialKind, WorstCase,
};
use neurofail_tensor::{checksum64_words, ByteReader, ByteWriter, DecodeError, OnlineStats};

/// Frame magic: `"NFFLEET1"` as a little-endian word.
pub const MAGIC: u64 = u64::from_le_bytes(*b"NFFLEET1");
/// Protocol version; a frame carrying any other value is rejected with
/// [`ProtocolError::Version`] (stale workers cannot silently interoperate).
pub const PROTO_VERSION: u64 = 3;
/// Hard ceiling on a frame's payload, bounding what a corrupt or hostile
/// length prefix can make the receiver allocate.
pub const MAX_PAYLOAD: u64 = 1 << 26;

/// Everything that can go wrong between bytes and a validated [`Message`].
///
/// `#[non_exhaustive]`: the protocol grows; match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The stream ended mid-frame.
    Truncated,
    /// The frame header's magic word is wrong — not a fleet frame at all.
    BadMagic(u64),
    /// The frame speaks a different protocol version.
    Version {
        /// Version the frame declared.
        got: u64,
        /// Version this build speaks.
        want: u64,
    },
    /// The frame kind is not one this build knows.
    UnknownKind(u64),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The declared payload length is not word-aligned.
    Misaligned(u64),
    /// The payload bytes do not hash to the header's checksum.
    Checksum {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the bytes actually received.
        got: u64,
    },
    /// The payload failed structural validation (bad tag, count, or
    /// trailing bytes).
    Malformed(&'static str),
    /// The underlying socket failed.
    Io(io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:#018x}"),
            ProtocolError::Version { got, want } => {
                write!(f, "protocol version {got} (this build speaks {want})")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Oversized(n) => write!(f, "payload of {n} bytes exceeds cap"),
            ProtocolError::Misaligned(n) => write!(f, "payload length {n} not word-aligned"),
            ProtocolError::Checksum { expected, got } => {
                write!(f, "payload checksum {got:#x} != declared {expected:#x}")
            }
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::Io(kind) => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        ProtocolError::Malformed(e.0)
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

/// `checksum64` of the frame's first 32 bytes followed by its payload,
/// without concatenating them: the same words folded in the same order
/// (the byte length, the four header words, then the payload's words).
fn frame_checksum(header: [u64; 4], payload: &[u8]) -> u64 {
    debug_assert!(
        payload.len().is_multiple_of(8),
        "payload must be word-aligned"
    );
    let words = payload
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    checksum64_words(
        std::iter::once(32 + payload.len() as u64)
            .chain(header)
            .chain(words),
    )
}

/// Append one frame around an already-built payload to `out`. The
/// checksum covers the leading header words *and* the payload: a bit
/// flip anywhere in the frame — including the kind word, where a flip
/// could otherwise turn one same-shaped message into another — fails
/// validation.
fn push_frame(out: &mut Vec<u8>, kind: u64, payload: &[u8]) {
    let header = [MAGIC, PROTO_VERSION, kind, payload.len() as u64];
    let sum = frame_checksum(header, payload);
    out.reserve(40 + payload.len());
    for word in header.into_iter().chain([sum]) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(payload);
}

/// Encode one frame around an already-built payload.
pub fn encode_frame(kind: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + payload.len());
    push_frame(&mut out, kind, payload);
    out
}

/// Append one message as a frame to `out`, so that a burst of frames
/// leaves in one write.
pub fn push_message(out: &mut Vec<u8>, msg: &Message) {
    let (kind, payload) = msg.encode();
    push_frame(out, kind, &payload);
}

/// Write one message as a frame.
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let mut out = Vec::new();
    push_message(&mut out, msg);
    w.write_all(&out)
}

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    ProtocolError::Closed
                } else {
                    ProtocolError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Read and validate one frame, returning `(kind, payload)`. Every
/// header field is checked before the payload is read, and the payload's
/// checksum before it is returned — a caller never sees bytes the frame
/// discipline has not vouched for.
pub fn read_frame(r: &mut impl Read) -> Result<(u64, Vec<u8>), ProtocolError> {
    let mut header = [0u8; 40];
    read_exact_or(r, &mut header, true)?;
    let word = |i: usize| u64::from_le_bytes(header[i * 8..(i + 1) * 8].try_into().expect("word"));
    let (magic, version, kind, len, declared) = (word(0), word(1), word(2), word(3), word(4));
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if version != PROTO_VERSION {
        return Err(ProtocolError::Version {
            got: version,
            want: PROTO_VERSION,
        });
    }
    if !Message::known_kind(kind) {
        return Err(ProtocolError::UnknownKind(kind));
    }
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized(len));
    }
    if len % 8 != 0 {
        return Err(ProtocolError::Misaligned(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, false)?;
    let got = frame_checksum([magic, version, kind, len], &payload);
    if got != declared {
        return Err(ProtocolError::Checksum {
            expected: declared,
            got,
        });
    }
    Ok((kind, payload))
}

/// Read one frame and decode its message.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtocolError> {
    let (kind, payload) = read_frame(r)?;
    Message::decode(kind, &payload)
}

// Frame kinds. Router → worker first, worker → router after.
const K_HELLO: u64 = 1;
const K_REGISTER: u64 = 3;
const K_QUERY: u64 = 4;
const K_SHARD: u64 = 5;
const K_PING: u64 = 6;
const K_STATS_REQ: u64 = 7;
const K_AUDIT_REQ: u64 = 8;
const K_SHUTDOWN: u64 = 9;
const K_ANSWER: u64 = 11;
const K_REFUSED: u64 = 12;
const K_SHARD_DONE: u64 = 13;
const K_PONG: u64 = 14;
const K_STATS_REPLY: u64 = 15;
const K_AUDIT_REPLY: u64 = 16;
const K_BYE: u64 = 17;
/// Kinds of version 2's serving-config frame and registration ack,
/// retired in version 3; no later version reuses them.
const RETIRED_KINDS: [u64; 2] = [2, 10];

/// Typed request-refusal codes carried in [`Message::Refused`] — the
/// wire image of the embedded server's `SubmitError`/`RequestError`
/// variants, so `retry_after` hints and quarantine semantics survive the
/// process boundary.
pub mod code {
    /// No such plan on the worker.
    pub const UNKNOWN_PLAN: u64 = 1;
    /// Input length does not match the plan's network.
    pub const DIMENSION_MISMATCH: u64 = 2;
    /// Worker queue at capacity; `retry_after` carries the drain hint.
    pub const QUEUE_FULL: u64 = 3;
    /// Worker shed the request under its overload budget.
    pub const OVERLOADED: u64 = 4;
    /// The plan is quarantined on the worker.
    pub const QUARANTINED: u64 = 5;
    /// The worker's serving shard is down.
    pub const SHARD_DOWN: u64 = 6;
    /// The embedded serving worker died before answering.
    pub const WORKER_DIED: u64 = 7;
    /// The request's deadline expired on the worker.
    pub const DEADLINE: u64 = 8;
}

/// One trial's result in transport form: the raw
/// [`OnlineStats`] accumulator plus the trial's own worst case.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrial {
    /// 0-based trial index in the campaign.
    pub trial: u64,
    /// Raw accumulator state ([`OnlineStats::to_raw`]).
    pub stats: (u64, f64, f64, f64, f64),
    /// The trial's worst observation, if it evaluated anything.
    pub worst: Option<WorstCase>,
}

/// Counters a worker reports in [`Message::StatsReply`] — the
/// fleet-visible slice of its plans' `ServeStats`, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireWorkerStats {
    /// Requests accepted by the plans' servers.
    pub requests: u64,
    /// Rows served.
    pub rows_served: u64,
    /// Streaming-checkpoint flush hits.
    pub checkpoint_hits: u64,
    /// Rows the streaming checkpoints avoided recomputing.
    pub checkpoint_rows_reused: u64,
    /// Thread-level worker restarts inside the plans' servers.
    pub serve_restarts: u64,
    /// Rows requeued inside the plans' servers.
    pub serve_rows_requeued: u64,
    /// Plans quarantined inside their servers.
    pub plans_quarantined: u64,
}

/// Every frame the protocol speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → router, first frame on a connection.
    Hello {
        /// The worker slot index this process was launched for.
        worker: u64,
        /// The slot's spawn generation this process was launched as. The
        /// router only adopts a connection whose generation matches the
        /// slot's current one: a killed worker's dial can still be in the
        /// accept queue when its replacement is launched, and adopting
        /// that dead stream would strike the healthy replacement.
        gen: u64,
    },
    /// Router → worker: admit this plan under the given fleet-wide id.
    /// Re-sent idempotently after respawns; a worker already holding the
    /// id ignores the repeat.
    Register {
        /// Fleet-wide plan id.
        plan: u64,
        /// `nn::serialize::net_to_bytes` image of the network.
        net: Vec<u8>,
        /// [`plan_to_bytes`] image of the injection plan.
        plan_bytes: Vec<u8>,
        /// Synaptic capacity the plan executes under.
        capacity: f64,
    },
    /// Router → worker: one certification query.
    Query {
        /// Router-assigned sequence number (echoed in the answer).
        seq: u64,
        /// Fleet-wide plan id.
        plan: u64,
        /// Input row.
        input: Vec<f64>,
    },
    /// Router → worker: run trials `first .. first + count` of a
    /// campaign.
    Shard {
        /// Campaign job id.
        job: u64,
        /// Shard id within the job.
        shard: u64,
        /// Network image.
        net: Vec<u8>,
        /// Per-layer fault counts.
        counts: Vec<u64>,
        /// What each trial injects.
        kind: TrialKind,
        /// Campaign config (trials, inputs, seed, capacity).
        cfg: CampaignConfig,
        /// First trial of the range.
        first: u64,
        /// Number of trials in the range.
        count: u64,
    },
    /// Router → worker: liveness probe.
    Ping {
        /// Echoed in the pong.
        nonce: u64,
    },
    /// Router → worker: report counters.
    StatsReq,
    /// Router → worker: verify your request log and report.
    AuditReq,
    /// Router → worker: drain and exit cleanly.
    Shutdown,
    /// Worker → router: one answered query.
    Answer {
        /// Echo of the query's sequence number.
        seq: u64,
        /// The served disturbance value (bit-exact).
        value: f64,
    },
    /// Worker → router: a query refused with a typed error.
    Refused {
        /// Echo of the query's sequence number.
        seq: u64,
        /// A [`code`] constant.
        code: u64,
        /// Backoff hint in nanoseconds (0 = none).
        retry_after_nanos: u64,
    },
    /// Worker → router: one completed campaign shard.
    ShardDone {
        /// Campaign job id.
        job: u64,
        /// Shard id within the job.
        shard: u64,
        /// Per-trial results, in trial order.
        trials: Vec<WireTrial>,
    },
    /// Worker → router: liveness reply.
    Pong {
        /// Echo of the ping's nonce.
        nonce: u64,
    },
    /// Worker → router: counter report.
    StatsReply(WireWorkerStats),
    /// Worker → router: audit outcome.
    AuditReply {
        /// Entries in the worker's request log.
        entries: u64,
        /// Whether `RequestLog::verify` replayed every entry bitwise.
        ok: bool,
    },
    /// Either direction: the peer is closing this connection. Code 0 is
    /// a graceful goodbye; nonzero carries the [`ProtocolError`]-ish
    /// reason the peer observed before resetting.
    Bye {
        /// Reason code (0 = graceful).
        code: u64,
    },
}

impl Message {
    fn known_kind(kind: u64) -> bool {
        (K_HELLO..=K_BYE).contains(&kind) && !RETIRED_KINDS.contains(&kind)
    }

    /// Encode into `(kind, payload)` for [`encode_frame`].
    pub fn encode(&self) -> (u64, Vec<u8>) {
        let mut w = ByteWriter::new();
        let kind = match self {
            Message::Hello { worker, gen } => {
                w.put_u64(*worker);
                w.put_u64(*gen);
                K_HELLO
            }
            Message::Register {
                plan,
                net,
                plan_bytes,
                capacity,
            } => {
                w.put_u64(*plan);
                w.put_bytes(net);
                w.put_bytes(plan_bytes);
                w.put_f64(*capacity);
                K_REGISTER
            }
            Message::Query { seq, plan, input } => {
                w.put_u64(*seq);
                w.put_u64(*plan);
                w.put_f64_slice(input);
                K_QUERY
            }
            Message::Shard {
                job,
                shard,
                net,
                counts,
                kind,
                cfg,
                first,
                count,
            } => {
                w.put_u64(*job);
                w.put_u64(*shard);
                w.put_bytes(net);
                w.put_u64(counts.len() as u64);
                for &c in counts {
                    w.put_u64(c);
                }
                put_trial_kind(&mut w, kind);
                w.put_u64(cfg.trials as u64);
                w.put_u64(cfg.inputs_per_trial as u64);
                w.put_u64(cfg.seed);
                w.put_f64(cfg.capacity);
                w.put_u64(*first);
                w.put_u64(*count);
                K_SHARD
            }
            Message::Ping { nonce } => {
                w.put_u64(*nonce);
                K_PING
            }
            Message::StatsReq => K_STATS_REQ,
            Message::AuditReq => K_AUDIT_REQ,
            Message::Shutdown => K_SHUTDOWN,
            Message::Answer { seq, value } => {
                w.put_u64(*seq);
                w.put_f64(*value);
                K_ANSWER
            }
            Message::Refused {
                seq,
                code,
                retry_after_nanos,
            } => {
                w.put_u64(*seq);
                w.put_u64(*code);
                w.put_u64(*retry_after_nanos);
                K_REFUSED
            }
            Message::ShardDone { job, shard, trials } => {
                w.put_u64(*job);
                w.put_u64(*shard);
                w.put_u64(trials.len() as u64);
                for t in trials {
                    w.put_u64(t.trial);
                    let (count, mean, m2, min, max) = t.stats;
                    w.put_u64(count);
                    w.put_f64(mean);
                    w.put_f64(m2);
                    w.put_f64(min);
                    w.put_f64(max);
                    match &t.worst {
                        None => w.put_u64(0),
                        Some(wc) => {
                            w.put_u64(1);
                            w.put_f64(wc.error);
                            w.put_f64_slice(&wc.input);
                            w.put_bytes(&plan_to_bytes(&wc.plan));
                            w.put_u64(wc.trial as u64);
                            w.put_u64(wc.seed);
                        }
                    }
                }
                K_SHARD_DONE
            }
            Message::Pong { nonce } => {
                w.put_u64(*nonce);
                K_PONG
            }
            Message::StatsReply(s) => {
                for v in [
                    s.requests,
                    s.rows_served,
                    s.checkpoint_hits,
                    s.checkpoint_rows_reused,
                    s.serve_restarts,
                    s.serve_rows_requeued,
                    s.plans_quarantined,
                ] {
                    w.put_u64(v);
                }
                K_STATS_REPLY
            }
            Message::AuditReply { entries, ok } => {
                w.put_u64(*entries);
                w.put_u64(*ok as u64);
                K_AUDIT_REPLY
            }
            Message::Bye { code } => {
                w.put_u64(*code);
                K_BYE
            }
        };
        (kind, w.into_bytes())
    }

    /// Decode and fully validate one payload. Rejects unknown tags, out
    /// of range counts, and trailing bytes.
    pub fn decode(kind: u64, payload: &[u8]) -> Result<Message, ProtocolError> {
        let mut r = ByteReader::new(payload);
        let msg = match kind {
            K_HELLO => Message::Hello {
                worker: r.get_u64()?,
                gen: r.get_u64()?,
            },
            K_REGISTER => Message::Register {
                plan: r.get_u64()?,
                net: r.get_bytes()?.to_vec(),
                plan_bytes: r.get_bytes()?.to_vec(),
                capacity: get_capacity(&mut r)?,
            },
            K_QUERY => Message::Query {
                seq: r.get_u64()?,
                plan: r.get_u64()?,
                input: r.get_f64_vec()?,
            },
            K_SHARD => {
                let job = r.get_u64()?;
                let shard = r.get_u64()?;
                let net = r.get_bytes()?.to_vec();
                let n = r.get_len(8)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(r.get_u64()?);
                }
                let kind = get_trial_kind(&mut r)?;
                let cfg = CampaignConfig {
                    trials: get_usize(&mut r)?,
                    inputs_per_trial: get_usize(&mut r)?,
                    seed: r.get_u64()?,
                    capacity: get_capacity(&mut r)?,
                };
                let first = r.get_u64()?;
                let count = r.get_u64()?;
                if first
                    .checked_add(count)
                    .is_none_or(|e| e > cfg.trials as u64)
                {
                    return Err(ProtocolError::Malformed("shard range exceeds trials"));
                }
                Message::Shard {
                    job,
                    shard,
                    net,
                    counts,
                    kind,
                    cfg,
                    first,
                    count,
                }
            }
            K_PING => Message::Ping {
                nonce: r.get_u64()?,
            },
            K_STATS_REQ => Message::StatsReq,
            K_AUDIT_REQ => Message::AuditReq,
            K_SHUTDOWN => Message::Shutdown,
            K_ANSWER => Message::Answer {
                seq: r.get_u64()?,
                value: r.get_f64()?,
            },
            K_REFUSED => Message::Refused {
                seq: r.get_u64()?,
                code: r.get_u64()?,
                retry_after_nanos: r.get_u64()?,
            },
            K_SHARD_DONE => {
                let job = r.get_u64()?;
                let shard = r.get_u64()?;
                // Each trial is at least 7 words.
                let n = r.get_len(56)?;
                let mut trials = Vec::with_capacity(n);
                for _ in 0..n {
                    let trial = r.get_u64()?;
                    let stats = (
                        r.get_u64()?,
                        r.get_f64()?,
                        r.get_f64()?,
                        r.get_f64()?,
                        r.get_f64()?,
                    );
                    let worst = match r.get_u64()? {
                        0 => None,
                        1 => Some(WorstCase {
                            error: r.get_f64()?,
                            input: r.get_f64_vec()?,
                            plan: plan_from_bytes(r.get_bytes()?)?,
                            trial: get_usize(&mut r)?,
                            seed: r.get_u64()?,
                        }),
                        _ => return Err(ProtocolError::Malformed("bad worst-case presence tag")),
                    };
                    trials.push(WireTrial {
                        trial,
                        stats,
                        worst,
                    });
                }
                Message::ShardDone { job, shard, trials }
            }
            K_PONG => Message::Pong {
                nonce: r.get_u64()?,
            },
            K_STATS_REPLY => {
                let mut vals = [0u64; 7];
                for v in &mut vals {
                    *v = r.get_u64()?;
                }
                Message::StatsReply(WireWorkerStats {
                    requests: vals[0],
                    rows_served: vals[1],
                    checkpoint_hits: vals[2],
                    checkpoint_rows_reused: vals[3],
                    serve_restarts: vals[4],
                    serve_rows_requeued: vals[5],
                    plans_quarantined: vals[6],
                })
            }
            K_AUDIT_REPLY => Message::AuditReply {
                entries: r.get_u64()?,
                ok: get_bool(&mut r)?,
            },
            K_BYE => Message::Bye { code: r.get_u64()? },
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        if !r.is_exhausted() {
            return Err(ProtocolError::Malformed("trailing bytes after payload"));
        }
        Ok(msg)
    }
}

fn get_bool(r: &mut ByteReader<'_>) -> Result<bool, ProtocolError> {
    match r.get_u64()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ProtocolError::Malformed("bad bool word")),
    }
}

/// A synaptic capacity under `CompiledPlan::compile`'s rule: `> 0.0`
/// (so +∞ is legal, and NaN is not).
fn get_capacity(r: &mut ByteReader<'_>) -> Result<f64, ProtocolError> {
    let capacity = r.get_f64()?;
    if capacity > 0.0 {
        Ok(capacity)
    } else {
        Err(ProtocolError::Malformed("capacity not positive"))
    }
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, ProtocolError> {
    usize::try_from(r.get_u64()?).map_err(|_| ProtocolError::Malformed("value overflows usize"))
}

fn put_trial_kind(w: &mut ByteWriter, kind: &TrialKind) {
    match kind {
        TrialKind::Neurons(spec) => {
            w.put_u64(1);
            match spec {
                FaultSpec::Crash => w.put_u64(1),
                FaultSpec::ByzantineMaxPositive => w.put_u64(2),
                FaultSpec::ByzantineMaxNegative => w.put_u64(3),
                FaultSpec::ByzantineRandom => w.put_u64(4),
                FaultSpec::ByzantineOpposeNominal => w.put_u64(5),
                FaultSpec::StuckAt(v) => {
                    w.put_u64(6);
                    w.put_f64(*v);
                }
            }
        }
        TrialKind::Synapses { byzantine } => {
            w.put_u64(2);
            w.put_u64(*byzantine as u64);
        }
    }
}

fn get_trial_kind(r: &mut ByteReader<'_>) -> Result<TrialKind, ProtocolError> {
    match r.get_u64()? {
        1 => {
            let spec = match r.get_u64()? {
                1 => FaultSpec::Crash,
                2 => FaultSpec::ByzantineMaxPositive,
                3 => FaultSpec::ByzantineMaxNegative,
                4 => FaultSpec::ByzantineRandom,
                5 => FaultSpec::ByzantineOpposeNominal,
                6 => FaultSpec::StuckAt(r.get_f64()?),
                _ => return Err(ProtocolError::Malformed("bad fault-spec tag")),
            };
            Ok(TrialKind::Neurons(spec))
        }
        2 => Ok(TrialKind::Synapses {
            byzantine: get_bool(r)?,
        }),
        _ => Err(ProtocolError::Malformed("bad trial-kind tag")),
    }
}

/// Canonical bitwise encoding of an [`InjectionPlan`] — the wire/worst-
/// case transport form, fully validated on decode (the
/// `nn::serialize::net_to_bytes` discipline applied to plans).
pub fn plan_to_bytes(plan: &InjectionPlan) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(plan.neurons.len() as u64);
    for s in &plan.neurons {
        w.put_u64(s.layer as u64);
        w.put_u64(s.neuron as u64);
        match s.fault {
            NeuronFault::Crash => w.put_u64(1),
            NeuronFault::Byzantine(strategy) => {
                w.put_u64(2);
                match strategy {
                    ByzantineStrategy::MaxPositive => w.put_u64(1),
                    ByzantineStrategy::MaxNegative => w.put_u64(2),
                    ByzantineStrategy::OpposeNominal => w.put_u64(3),
                    ByzantineStrategy::Random { seed } => {
                        w.put_u64(4);
                        w.put_u64(seed);
                    }
                }
            }
            NeuronFault::StuckAt(v) => {
                w.put_u64(3);
                w.put_f64(v);
            }
        }
    }
    w.put_u64(plan.synapses.len() as u64);
    for s in &plan.synapses {
        match s.target {
            SynapseTarget::Hidden { layer, to, from } => {
                w.put_u64(1);
                w.put_u64(layer as u64);
                w.put_u64(to as u64);
                w.put_u64(from as u64);
            }
            SynapseTarget::Output { from } => {
                w.put_u64(2);
                w.put_u64(from as u64);
            }
        }
        match s.fault {
            SynapseFault::Crash => w.put_u64(1),
            SynapseFault::Byzantine(delta) => {
                w.put_u64(2);
                w.put_f64(delta);
            }
        }
    }
    w.into_bytes()
}

/// Decode a [`plan_to_bytes`] image, rejecting every malformed tag or
/// count.
pub fn plan_from_bytes(bytes: &[u8]) -> Result<InjectionPlan, ProtocolError> {
    let mut r = ByteReader::new(bytes);
    // A neuron site is at least 3 words.
    let n = r.get_len(24)?;
    let mut neurons = Vec::with_capacity(n);
    for _ in 0..n {
        let layer = get_usize(&mut r)?;
        let neuron = get_usize(&mut r)?;
        let fault = match r.get_u64()? {
            1 => NeuronFault::Crash,
            2 => NeuronFault::Byzantine(match r.get_u64()? {
                1 => ByzantineStrategy::MaxPositive,
                2 => ByzantineStrategy::MaxNegative,
                3 => ByzantineStrategy::OpposeNominal,
                4 => ByzantineStrategy::Random { seed: r.get_u64()? },
                _ => return Err(ProtocolError::Malformed("bad byzantine-strategy tag")),
            }),
            3 => NeuronFault::StuckAt(r.get_f64()?),
            _ => return Err(ProtocolError::Malformed("bad neuron-fault tag")),
        };
        neurons.push(NeuronSite {
            layer,
            neuron,
            fault,
        });
    }
    // A synapse site is at least 3 words.
    let m = r.get_len(24)?;
    let mut synapses = Vec::with_capacity(m);
    for _ in 0..m {
        let target = match r.get_u64()? {
            1 => SynapseTarget::Hidden {
                layer: get_usize(&mut r)?,
                to: get_usize(&mut r)?,
                from: get_usize(&mut r)?,
            },
            2 => SynapseTarget::Output {
                from: get_usize(&mut r)?,
            },
            _ => return Err(ProtocolError::Malformed("bad synapse-target tag")),
        };
        let fault = match r.get_u64()? {
            1 => SynapseFault::Crash,
            2 => SynapseFault::Byzantine(r.get_f64()?),
            _ => return Err(ProtocolError::Malformed("bad synapse-fault tag")),
        };
        synapses.push(SynapseSite { target, fault });
    }
    if !r.is_exhausted() {
        return Err(ProtocolError::Malformed("trailing bytes after plan"));
    }
    Ok(InjectionPlan { neurons, synapses })
}

/// Convert a [`WireTrial`] back into the campaign layer's
/// [`TrialResult`](neurofail_inject::TrialResult) form.
pub fn trial_to_result(t: &WireTrial) -> (OnlineStats, Option<WorstCase>) {
    (OnlineStats::from_raw(t.stats), t.worst.clone())
}

/// Backoff hint duration from a refusal's nanosecond word.
pub fn retry_after(nanos: u64) -> Option<Duration> {
    (nanos > 0).then(|| Duration::from_nanos(nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { worker: 3, gen: 2 },
            Message::Register {
                plan: 7,
                net: vec![0u8; 16],
                plan_bytes: plan_to_bytes(&InjectionPlan::crash([(0, 1), (2, 3)])),
                capacity: 1.5,
            },
            Message::Query {
                seq: 42,
                plan: 7,
                input: vec![0.1, -0.2, 0.3],
            },
            Message::Shard {
                job: 1,
                shard: 2,
                net: vec![0u8; 8],
                counts: vec![2, 1],
                kind: TrialKind::Neurons(FaultSpec::StuckAt(-0.25)),
                cfg: CampaignConfig {
                    trials: 100,
                    inputs_per_trial: 8,
                    seed: 0xF00D,
                    capacity: 2.0,
                },
                first: 25,
                count: 25,
            },
            Message::Ping { nonce: 9 },
            Message::StatsReq,
            Message::AuditReq,
            Message::Shutdown,
            Message::Answer {
                seq: 42,
                value: -0.0,
            },
            Message::Refused {
                seq: 43,
                code: code::QUEUE_FULL,
                retry_after_nanos: 1_000_000,
            },
            Message::ShardDone {
                job: 1,
                shard: 2,
                trials: vec![WireTrial {
                    trial: 25,
                    stats: (8, 0.5, 0.01, 0.1, 0.9),
                    worst: Some(WorstCase {
                        error: 0.9,
                        input: vec![0.2; 4],
                        plan: InjectionPlan::byzantine(
                            [(1, 2)],
                            ByzantineStrategy::Random { seed: 11 },
                        ),
                        trial: 25,
                        seed: 0xABC,
                    }),
                }],
            },
            Message::Pong { nonce: 9 },
            Message::StatsReply(WireWorkerStats {
                requests: 10,
                rows_served: 10,
                checkpoint_hits: 2,
                ..WireWorkerStats::default()
            }),
            Message::AuditReply {
                entries: 10,
                ok: true,
            },
            Message::Bye { code: 0 },
        ]
    }

    /// A reader that yields at most `step` bytes per `read`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn every_message_roundtrips_through_a_frame() {
        let messages = sample_messages();
        for msg in &messages {
            let (kind, payload) = msg.encode();
            let framed = encode_frame(kind, &payload);
            let mut cursor = &framed[..];
            let got = read_message(&mut cursor).expect("frame reads back");
            assert_eq!(&got, msg);
            assert!(cursor.is_empty());
        }

        // One burst of every message, read back through a buffer smaller
        // than most frames over a reader that splits them further.
        let mut burst = Vec::new();
        for msg in &messages {
            push_message(&mut burst, msg);
        }
        let mut reader = io::BufReader::with_capacity(
            16,
            Trickle {
                bytes: &burst,
                step: 7,
            },
        );
        for msg in &messages {
            assert_eq!(&read_message(&mut reader).expect("burst frame"), msg);
        }
        assert_eq!(read_message(&mut reader), Err(ProtocolError::Closed));

        // Every checksum word is `checksum64` over the frame's first 32
        // bytes followed by its payload, as the frame layout defines it.
        let word = |at: usize| u64::from_le_bytes(burst[at..at + 8].try_into().expect("word"));
        let mut at = 0;
        for _ in &messages {
            let end = at + 40 + word(at + 24) as usize;
            let mut covered = burst[at..at + 32].to_vec();
            covered.extend_from_slice(&burst[at + 40..end]);
            assert_eq!(word(at + 32), neurofail_tensor::checksum64(&covered));
            at = end;
        }
        assert_eq!(at, burst.len());
        // And one frame's bytes pinned outright. The checksum folds the
        // version word, so a `PROTO_VERSION` bump moves this pin; derive
        // the new one from the FNV-1a/SplitMix64 definition.
        let ping = encode_frame(K_PING, &9u64.to_le_bytes());
        assert_eq!(&ping[32..40], &0x3e3b_1fb8_3da1_dfd5_u64.to_le_bytes());
    }

    #[test]
    fn clean_eof_is_closed_and_partial_is_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }), Err(ProtocolError::Closed));
        let (kind, payload) = Message::Ping { nonce: 1 }.encode();
        let framed = encode_frame(kind, &payload);
        for cut in [1, 8, 39, framed.len() - 1] {
            let mut cursor = &framed[..cut];
            assert_eq!(
                read_frame(&mut cursor),
                Err(ProtocolError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn header_violations_are_typed() {
        let (kind, payload) = Message::Ping { nonce: 1 }.encode();
        let good = encode_frame(kind, &payload);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad_magic[..]),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut stale = good.clone();
        stale[8..16].copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(
            read_frame(&mut &stale[..]),
            Err(ProtocolError::Version {
                got: 99,
                want: PROTO_VERSION
            })
        );

        let mut unknown = good.clone();
        unknown[16..24].copy_from_slice(&777u64.to_le_bytes());
        assert_eq!(
            read_frame(&mut &unknown[..]),
            Err(ProtocolError::UnknownKind(777))
        );

        let mut oversized = good.clone();
        oversized[24..32].copy_from_slice(&(MAX_PAYLOAD + 8).to_le_bytes());
        assert_eq!(
            read_frame(&mut &oversized[..]),
            Err(ProtocolError::Oversized(MAX_PAYLOAD + 8))
        );

        let mut misaligned = good.clone();
        misaligned[24..32].copy_from_slice(&13u64.to_le_bytes());
        assert_eq!(
            read_frame(&mut &misaligned[..]),
            Err(ProtocolError::Misaligned(13))
        );

        let mut corrupt = good;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &corrupt[..]),
            Err(ProtocolError::Checksum { .. })
        ));
    }

    #[test]
    fn plans_roundtrip_and_garbage_is_rejected() {
        let plans = [
            InjectionPlan::none(),
            InjectionPlan::crash([(0, 1), (3, 2)]),
            InjectionPlan::stuck_at([((1, 1), -0.5)]),
            InjectionPlan::byzantine([(1, 2)], ByzantineStrategy::MaxPositive),
            InjectionPlan::byzantine([(0, 0)], ByzantineStrategy::MaxNegative),
            InjectionPlan::byzantine([(2, 3)], ByzantineStrategy::OpposeNominal),
            InjectionPlan::byzantine([(1, 2)], ByzantineStrategy::Random { seed: 9 }),
            InjectionPlan {
                neurons: vec![],
                synapses: vec![
                    SynapseSite {
                        target: SynapseTarget::Hidden {
                            layer: 1,
                            to: 0,
                            from: 2,
                        },
                        fault: SynapseFault::Byzantine(0.75),
                    },
                    SynapseSite {
                        target: SynapseTarget::Output { from: 4 },
                        fault: SynapseFault::Crash,
                    },
                ],
            },
        ];
        for plan in &plans {
            let bytes = plan_to_bytes(plan);
            assert_eq!(&plan_from_bytes(&bytes).unwrap(), plan);
        }
        assert!(plan_from_bytes(&[1, 2, 3]).is_err());
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX); // absurd neuron count vs bytes present
        assert!(plan_from_bytes(&huge.into_bytes()).is_err());
    }
}
