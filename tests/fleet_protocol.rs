//! Wire-fuzz certification of the fleet protocol:
//!
//! * **decode fuzz** — bit flips, truncations, oversized length
//!   prefixes, stale versions, unknown and retired kinds and pure garbage
//!   against `read_frame`/`Message::decode`: every mutation yields a
//!   typed [`ProtocolError`] or the bit-exact original message — never a
//!   panic, a hang, or a silently different message; and a well-formed
//!   frame carrying a capacity the worker would panic on (one that is not
//!   positive) decodes to `Malformed`;
//! * **live worker leg** — a *real* worker process (re-invocation of
//!   this binary) fed garbage, such values, or net bytes that do not
//!   decode over its socket replies `Bye` with a nonzero reason, resets the connection, and exits with
//!   the clean protocol-error code (1) — not a panic (101) — with nothing
//!   panicking on stderr. A clean close at a frame boundary exits 0.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use neurofail::fleet::proto::{
    encode_frame, read_message, write_message, Message, ProtocolError, WireTrial, WireWorkerStats,
    MAX_PAYLOAD, PROTO_VERSION,
};
use neurofail::fleet::{FleetListener, Transport, ENV_ADDR, ENV_WORKER};
use neurofail::inject::{
    ByzantineStrategy, CampaignConfig, FaultSpec, InjectionPlan, TrialKind, WorstCase,
};
use neurofail::nn::activation::Activation;
use neurofail::nn::MlpBuilder;
use proptest::prelude::*;

/// The worker process (see `fleet_equivalence.rs`).
#[test]
#[ignore = "fleet worker child, spawned by the tests below"]
fn fleet_worker_child() {
    if std::env::var(ENV_ADDR).is_ok() {
        std::process::exit(neurofail::fleet::run_worker_from_env());
    }
}

/// One message per variant — the mutation corpus.
fn corpus() -> Vec<Message> {
    let plan = InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::Random { seed: 7 });
    vec![
        Message::Hello { worker: 3, gen: 7 },
        Message::Register {
            plan: 9,
            net: vec![0u8; 40],
            plan_bytes: neurofail::fleet::proto::plan_to_bytes(&plan),
            capacity: 1.5,
        },
        Message::Query {
            seq: 101,
            plan: 9,
            input: vec![0.25, -0.5, 1.0],
        },
        Message::Shard {
            job: 2,
            shard: 1,
            net: vec![0u8; 24],
            counts: vec![2, 1],
            kind: TrialKind::Neurons(FaultSpec::Crash),
            cfg: CampaignConfig {
                trials: 10,
                inputs_per_trial: 4,
                ..CampaignConfig::default()
            },
            first: 5,
            count: 5,
        },
        Message::Ping { nonce: 0xABCD },
        Message::StatsReq,
        Message::AuditReq,
        Message::Shutdown,
        Message::Answer {
            seq: 101,
            value: -0.125,
        },
        Message::Refused {
            seq: 102,
            code: neurofail::fleet::proto::code::QUEUE_FULL,
            retry_after_nanos: 1_000_000,
        },
        Message::ShardDone {
            job: 2,
            shard: 1,
            trials: vec![WireTrial {
                trial: 5,
                stats: (4, 0.5, 0.25, 0.1, 0.9),
                worst: Some(WorstCase {
                    error: 0.9,
                    input: vec![0.1, 0.2, 0.3],
                    plan: InjectionPlan::crash([(0, 0)]),
                    trial: 5,
                    seed: 42,
                }),
            }],
        },
        Message::Pong { nonce: 0xABCD },
        Message::StatsReply(WireWorkerStats::default()),
        Message::AuditReply {
            entries: 17,
            ok: true,
        },
        Message::Bye { code: 0 },
    ]
}

fn decode_bytes(bytes: &[u8]) -> Result<Message, ProtocolError> {
    read_message(&mut &bytes[..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A single flipped bit anywhere in a frame is always caught: typed
    /// error, or (never observed, but the real contract) the bit-exact
    /// original. The checksum covers the header words too, so kind
    /// flips cannot silently alias same-shaped messages (Ping ↔ Pong).
    #[test]
    fn any_single_bit_flip_is_caught(msg_i in 0usize..15, pos in 0usize..4096, bit in 0usize..8) {
        let corpus = corpus();
        let msg = &corpus[msg_i % corpus.len()];
        let (kind, payload) = msg.encode();
        let mut bytes = encode_frame(kind, &payload);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match decode_bytes(&bytes) {
            Err(_) => {}
            Ok(got) => prop_assert_eq!(&got, msg, "corrupted frame decoded differently"),
        }
    }

    /// Truncating a frame anywhere yields `Closed` (empty), `Truncated`,
    /// or a typed decode error — never a panic or a wrong message.
    #[test]
    fn any_truncation_is_typed(msg_i in 0usize..15, keep in 0usize..4096) {
        let corpus = corpus();
        let msg = &corpus[msg_i % corpus.len()];
        let (kind, payload) = msg.encode();
        let bytes = encode_frame(kind, &payload);
        let keep = keep % bytes.len(); // strictly shorter than the frame
        match decode_bytes(&bytes[..keep]) {
            Err(ProtocolError::Closed) => prop_assert_eq!(keep, 0),
            Err(_) => {}
            Ok(got) => prop_assert_eq!(&got, msg),
        }
    }

    /// Pure garbage never panics and never produces a message.
    #[test]
    fn garbage_never_decodes(seed in 0u64..u64::MAX, len in 0usize..512) {
        // Deterministic noise from a SplitMix64 stream.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
        match decode_bytes(&bytes) {
            Err(_) => {}
            Ok(m) => prop_assert!(false, "garbage decoded as {:?}", m),
        }
    }
}

/// The specific header violations each get their dedicated typed error,
/// and an oversized length prefix is rejected *before* any allocation
/// or read of the claimed payload.
#[test]
fn header_attacks_are_typed_and_bounded() {
    let (kind, payload) = Message::Ping { nonce: 5 }.encode();
    let good = encode_frame(kind, &payload);

    // Stale version.
    let mut stale = good.clone();
    stale[8..16].copy_from_slice(&(PROTO_VERSION + 1).to_le_bytes());
    assert!(matches!(
        decode_bytes(&stale),
        Err(ProtocolError::Version { got, want }) if got == PROTO_VERSION + 1 && want == PROTO_VERSION
    ));

    // A well-formed frame of the previous version, checksum and all.
    let mut v2 = good.clone();
    v2[8..16].copy_from_slice(&2u64.to_le_bytes());
    let mut covered = v2[..32].to_vec();
    covered.extend_from_slice(&v2[40..]);
    v2[32..40].copy_from_slice(&neurofail::tensor::checksum64(&covered).to_le_bytes());
    assert_eq!(
        decode_bytes(&v2),
        Err(ProtocolError::Version { got: 2, want: 3 })
    );

    // Unknown kind.
    let mut unknown = good.clone();
    unknown[16..24].copy_from_slice(&999u64.to_le_bytes());
    assert!(matches!(
        decode_bytes(&unknown),
        Err(ProtocolError::UnknownKind(999))
    ));

    // Retired kinds 2 and 10 (version 2's serving config and registration
    // ack), in well-checksummed frames of their old payload sizes.
    for (kind, words) in [(2u64, 5usize), (10, 1)] {
        let frame = encode_frame(kind, &vec![0u8; 8 * words]);
        assert_eq!(decode_bytes(&frame), Err(ProtocolError::UnknownKind(kind)));
    }

    // Oversized length prefix: typed rejection, no attempt to read the
    // claimed 2^60 bytes (the call returns immediately on a short input).
    let mut oversized = good.clone();
    oversized[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes());
    assert!(matches!(
        decode_bytes(&oversized),
        Err(ProtocolError::Oversized(n)) if n == 1 << 60
    ));
    let mut barely = good.clone();
    barely[24..32].copy_from_slice(&(MAX_PAYLOAD + 8).to_le_bytes());
    assert!(matches!(
        decode_bytes(&barely),
        Err(ProtocolError::Oversized(_))
    ));

    // Word-misaligned length.
    let mut misaligned = good.clone();
    misaligned[24..32].copy_from_slice(&13u64.to_le_bytes());
    assert!(matches!(
        decode_bytes(&misaligned),
        Err(ProtocolError::Misaligned(13))
    ));

    // Bad magic.
    let mut magic = good;
    magic[0..8].copy_from_slice(b"HTTP/1.1");
    assert!(matches!(
        decode_bytes(&magic),
        Err(ProtocolError::BadMagic(_))
    ));

    // Valid frame whose payload lies about its interior lengths:
    // a Query payload (seq, plan, then a length-prefixed f64 slice)
    // claiming far more elements than the payload holds.
    let mut w = neurofail::tensor::ByteWriter::new();
    w.put_u64(1);
    w.put_u64(2);
    w.put_u64(u64::MAX / 8);
    let lying = w.into_bytes();
    let huge_count = encode_frame(4, &lying);
    assert!(matches!(
        decode_bytes(&huge_count),
        Err(ProtocolError::Malformed(_))
    ));
}

/// Frames whose values would panic the worker decode to `Malformed`:
/// capacities that are not `> 0.0` in `Register` and `Shard`. A capacity
/// of +∞ stays legal, as it is for `CompiledPlan::compile`.
#[test]
fn crashing_values_are_malformed_at_decode() {
    let register = |capacity| Message::Register {
        plan: 9,
        net: vec![0u8; 40],
        plan_bytes: neurofail::fleet::proto::plan_to_bytes(&InjectionPlan::crash([(0, 0)])),
        capacity,
    };
    let shard = |capacity| Message::Shard {
        job: 2,
        shard: 1,
        net: vec![0u8; 24],
        counts: vec![2, 1],
        kind: TrialKind::Neurons(FaultSpec::Crash),
        cfg: CampaignConfig {
            trials: 10,
            capacity,
            ..CampaignConfig::default()
        },
        first: 0,
        count: 10,
    };
    let frame = |msg: &Message| {
        let (kind, payload) = msg.encode();
        encode_frame(kind, &payload)
    };
    for bad in [
        register(0.0),
        register(-1.0),
        register(f64::NAN),
        shard(0.0),
        shard(f64::NAN),
    ] {
        assert!(
            matches!(decode_bytes(&frame(&bad)), Err(ProtocolError::Malformed(_))),
            "{bad:?} must be malformed"
        );
    }
    for good in [register(f64::INFINITY), shard(f64::INFINITY)] {
        assert_eq!(decode_bytes(&frame(&good)).expect("legal"), good);
    }
}

/// Spawn a real worker wired to `listener`'s address, returning the
/// child. Stderr is captured for the no-panics assertion; `--nocapture`
/// sends the child's panic messages there instead of into libtest's
/// capture.
fn spawn_live_worker(addr: &str) -> std::process::Child {
    Command::new(std::env::current_exe().expect("current_exe"))
        .args(["fleet_worker_child", "--ignored", "--exact", "--nocapture"])
        .env(ENV_ADDR, addr)
        .env(ENV_WORKER, "0")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker")
}

fn wait_with_deadline(child: &mut std::process::Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "worker hung instead of resetting the connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A live worker fed garbage frames answers `Bye` with a nonzero
/// reason, resets the connection, and exits 1 — the typed
/// protocol-error path, not a panic (exit 101).
#[test]
fn live_worker_survives_garbage_with_typed_reset() {
    let listener = FleetListener::bind(Transport::Unix).expect("bind");
    let mut child = spawn_live_worker(&listener.addr());
    let mut conn = listener.accept().expect("worker dials in");
    match read_message(&mut conn).expect("hello") {
        Message::Hello { worker: 0, gen: 0 } => {}
        other => panic!("expected Hello, got {other:?}"),
    }

    // Garbage: a corrupted Query frame (checksum cannot match).
    let (kind, payload) = Message::Query {
        seq: 1,
        plan: 0,
        input: vec![0.5, 0.5, 0.5],
    }
    .encode();
    let mut bytes = encode_frame(kind, &payload);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    use std::io::Write as _;
    conn.write_all(&bytes).expect("write garbage");
    conn.flush().unwrap();

    // The worker names the violation in a Bye and resets.
    match read_message(&mut conn) {
        Ok(Message::Bye { code }) => assert_ne!(code, 0, "garbage must not be a graceful goodbye"),
        Ok(other) => panic!("expected Bye, got {other:?}"),
        // The reset can also race ahead of the Bye read; a closed
        // connection is an acceptable observation of the reset itself.
        Err(ProtocolError::Closed) | Err(ProtocolError::Io(_)) => {}
        Err(e) => panic!("unexpected read error {e}"),
    }

    let status = wait_with_deadline(&mut child);
    assert_eq!(
        status.code(),
        Some(1),
        "protocol error must exit the clean error path"
    );
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        !stderr.contains("panicked"),
        "worker panicked on garbage input:\n{stderr}"
    );
}

/// Well-formed frames the worker cannot act on get the garbage
/// treatment — a reasoned `Bye` and exit 1, not a panic (exit 101) or a
/// silent close: a `Register` with capacity 0 (which would panic
/// `CompiledPlan::compile`), a `Register` whose net is 40 zero bytes, and
/// a `Shard` whose net bytes are a truncated image.
#[test]
fn live_worker_rejects_zero_capacity_with_typed_reset() {
    // A real net and plan, so only the named field is wrong.
    let net = MlpBuilder::new(2)
        .dense(3, Activation::Sigmoid { k: 1.0 })
        .build(&mut neurofail::data::rng::rng(1));
    let net_bytes = neurofail::nn::net_to_bytes(&net);
    let plan_bytes = neurofail::fleet::proto::plan_to_bytes(&InjectionPlan::crash([(0, 0)]));
    let register = |net: Vec<u8>, capacity: f64| Message::Register {
        plan: 0,
        net,
        plan_bytes: plan_bytes.clone(),
        capacity,
    };
    let cases = [
        ("zero capacity", register(net_bytes.clone(), 0.0)),
        ("zeroed net", register(vec![0u8; 40], 1.0)),
        (
            "undecodable shard net",
            Message::Shard {
                job: 0,
                shard: 0,
                net: net_bytes[..16].to_vec(),
                counts: vec![1],
                kind: TrialKind::Neurons(FaultSpec::Crash),
                cfg: CampaignConfig {
                    trials: 4,
                    inputs_per_trial: 2,
                    seed: 1,
                    capacity: 1.0,
                },
                first: 0,
                count: 4,
            },
        ),
    ];
    for (case, frame) in cases {
        let listener = FleetListener::bind(Transport::Unix).expect("bind");
        let mut child = spawn_live_worker(&listener.addr());
        let mut conn = listener.accept().expect("worker dials in");
        match read_message(&mut conn).expect("hello") {
            Message::Hello { worker: 0, gen: 0 } => {}
            other => panic!("{case}: expected Hello, got {other:?}"),
        }
        write_message(&mut conn, &frame).unwrap();
        match read_message(&mut conn) {
            Ok(Message::Bye { code }) => {
                assert_ne!(code, 0, "{case}: a rejection is no graceful goodbye")
            }
            other => panic!("{case}: expected Bye, got {other:?}"),
        }
        let status = wait_with_deadline(&mut child);
        assert_eq!(
            status.code(),
            Some(1),
            "{case}: rejection exits the clean error path"
        );
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(
            !stderr.contains("panicked"),
            "{case}: worker panicked:\n{stderr}"
        );
    }
}

/// A clean close at a frame boundary is a graceful goodbye: exit 0,
/// nothing on stderr.
#[test]
fn live_worker_exits_cleanly_on_boundary_close() {
    let listener = FleetListener::bind(Transport::Unix).expect("bind");
    let mut child = spawn_live_worker(&listener.addr());
    {
        let mut conn = listener.accept().expect("worker dials in");
        match read_message(&mut conn).expect("hello") {
            Message::Hello { worker: 0, gen: 0 } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        write_message(&mut conn, &Message::Ping { nonce: 9 }).unwrap();
        match read_message(&mut conn).expect("pong") {
            Message::Pong { nonce: 9 } => {}
            other => panic!("expected Pong, got {other:?}"),
        }
        conn.shutdown().expect("close at a frame boundary");
    }
    let status = wait_with_deadline(&mut child);
    assert_eq!(status.code(), Some(0), "boundary close is graceful");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(stderr.is_empty(), "clean exit must be silent:\n{stderr}");
}

/// Mid-frame close, by contrast, is `Truncated`: the typed error path,
/// exit 1, still no panic.
#[test]
fn live_worker_treats_midframe_close_as_truncation() {
    let listener = FleetListener::bind(Transport::Unix).expect("bind");
    let mut child = spawn_live_worker(&listener.addr());
    {
        let mut conn = listener.accept().expect("worker dials in");
        match read_message(&mut conn).expect("hello") {
            Message::Hello { worker: 0, gen: 0 } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        let (kind, payload) = Message::Ping { nonce: 1 }.encode();
        let bytes = encode_frame(kind, &payload);
        use std::io::Write as _;
        conn.write_all(&bytes[..bytes.len() / 2]).unwrap();
        conn.flush().unwrap();
        conn.shutdown().expect("close mid-frame");
    }
    let status = wait_with_deadline(&mut child);
    assert_eq!(status.code(), Some(1), "mid-frame close is a typed error");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        !stderr.contains("panicked"),
        "truncation must not panic the worker:\n{stderr}"
    );
}
