//! Timed calls into single layers' public APIs, made in the traced run
//! at the workload's own shapes: kernels, batched forward and backward,
//! the par channel hand-off, and the fleet frame codec and socket.

use std::time::Instant;

use neurofail_fleet::proto::{encode_frame, read_message, write_message};
use neurofail_fleet::{FleetListener, FleetStream, Message, Transport};
use neurofail_nn::train::{BatchBackpropWs, Grads};
use neurofail_nn::{BatchWorkspace, Mlp};
use neurofail_tensor::backend::{self, BackendKind};
use neurofail_tensor::Matrix;

use crate::report::Report;
use crate::util::{median, median_secs, quantile, us, Stream};

const REPS: usize = 7;

fn random(rows: usize, cols: usize, s: &mut Stream) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| s.unit() * 2.0 - 1.0)
}

/// `(rows, out, in)` of every dense layer of `net` at batch `rows`.
fn shapes(net: &Mlp, rows: usize) -> Vec<(usize, usize, usize)> {
    net.layers()
        .iter()
        .map(|l| (rows, l.out_dim(), l.in_dim()))
        .collect()
}

/// Median seconds per call of `pass`, timed in bulk: each of the `REPS`
/// samples repeats `pass` until it takes ~2 ms, so sub-µs calls are not
/// lost in clock resolution.
fn secs_per_call(mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    pass();
    let reps = ((2e-3 / t0.elapsed().as_secs_f64().max(1e-8)) as usize).clamp(1, 100_000);
    median_secs(REPS, || {
        for _ in 0..reps {
            pass();
        }
    }) / reps as f64
}

/// Kernel throughput at `net`'s layer shapes and batch `rows`:
/// `tensor.gemm_nt_gflops.<backend>` (forward `X·Wᵀ`) for every backend
/// kind (0 where unsupported), `tensor.gemm_tn_acc_gflops` (the weight
/// gradient `Δᵀ·X`, active backend) and `tensor.sigmoid_ns_per_elem`.
pub fn tensor(net: &Mlp, rows: usize, r: &mut Report) {
    let mut s = Stream::new(0x7E45, rows as u64);
    let shapes = shapes(net, rows);
    let ops: Vec<(Matrix, Matrix, Matrix)> = shapes
        .iter()
        .map(|&(m, n, k)| {
            (
                random(m, k, &mut s),
                random(n, k, &mut s),
                Matrix::zeros(m, n),
            )
        })
        .collect();
    let flops: f64 = shapes
        .iter()
        .map(|&(m, n, k)| 2.0 * (m * n * k) as f64)
        .sum();
    for kind in BackendKind::ALL {
        let name = format!("tensor.gemm_nt_gflops.{}", kind.name());
        if !kind.is_supported() {
            r.layer(&name, 0.0);
            continue;
        }
        let mut ops = ops.clone();
        let secs = backend::with_backend(kind, || {
            secs_per_call(|| {
                for (a, w, out) in ops.iter_mut() {
                    a.matmul_nt_into(w, out);
                }
            })
        });
        let gflops = flops / secs / 1e9;
        r.layer(&name, gflops);
    }

    let mut tn: Vec<(Matrix, Matrix, Matrix)> = shapes
        .iter()
        .map(|&(m, n, k)| {
            (
                random(m, n, &mut s),
                random(m, k, &mut s),
                Matrix::zeros(n, k),
            )
        })
        .collect();
    let secs = secs_per_call(|| {
        for (delta, x, out) in tn.iter_mut() {
            delta.matmul_tn_acc_into(x, out);
        }
    });
    r.layer("tensor.gemm_tn_acc_gflops", flops / secs / 1e9);

    let elems: usize = shapes.iter().map(|&(m, n, _)| m * n).sum();
    let xs: Vec<f64> = (0..elems).map(|_| s.unit() * 8.0 - 4.0).collect();
    let mut out = vec![0.0; elems];
    let be = backend::active();
    let secs = secs_per_call(|| be.vsigmoid(1.0, &xs, &mut out));
    r.layer("tensor.sigmoid_ns_per_elem", secs * 1e9 / elems as f64);
}

/// `nn.forward_batch_us` and `nn.backward_batch_us` of `net` at batch
/// `rows`.
pub fn nn(net: &Mlp, rows: usize, r: &mut Report) {
    let mut s = Stream::new(0x4E4E, rows as u64);
    let xs = random(rows, net.input_dim(), &mut s);
    let targets: Vec<f64> = (0..rows).map(|_| s.unit()).collect();
    let mut ws = BatchWorkspace::for_net(net, rows);
    let secs = secs_per_call(|| {
        std::hint::black_box(net.forward_batch(&xs, &mut ws));
    });
    r.layer("nn.forward_batch_us", secs * 1e6);

    let mut bws = BatchBackpropWs::for_net(net, rows);
    let mut grads = Grads::zeros_like(net);
    let secs = secs_per_call(|| {
        grads.zero();
        std::hint::black_box(net.backward_batch(&xs, &targets, &mut bws, &mut grads));
    });
    r.layer("nn.backward_batch_us", secs * 1e6);
}

/// `par.channel.handoff_ns`: half the round trip of one value through a
/// pair of capacity-1 `par::channel` queues between two threads.
pub fn par_handoff(r: &mut Report) {
    const N: u64 = 20_000;
    let (to_tx, to_rx) = neurofail_par::channel::bounded::<u64>(1);
    let (back_tx, back_rx) = neurofail_par::channel::bounded::<u64>(1);
    let secs = std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = to_rx.recv() {
                if back_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for i in 0..N {
            to_tx.send(i).expect("echo thread alive");
            back_rx.recv().expect("echo thread alive");
        }
        let secs = t0.elapsed().as_secs_f64();
        drop(to_tx);
        secs
    });
    r.layer("par.channel.handoff_ns", secs * 1e9 / (2 * N) as f64);
}

/// `fleet.proto.encode_ns` / `decode_ns`: one query frame plus one
/// answer frame, encoded to bytes and decoded back, per operation.
pub fn fleet_proto(dim: usize, r: &mut Report) {
    let query = Message::Query {
        seq: 12_345,
        plan: 3,
        input: (0..dim).map(|d| d as f64 * 0.125).collect(),
    };
    let answer = Message::Answer {
        seq: 12_345,
        value: 0.25,
    };
    let frame = |m: &Message| {
        let (kind, payload) = m.encode();
        encode_frame(kind, &payload)
    };
    const N: usize = 20_000;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let frames = [frame(&query), frame(&answer)];
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(frame(std::hint::black_box(&query)));
            std::hint::black_box(frame(std::hint::black_box(&answer)));
        }
        enc.push(t0.elapsed().as_secs_f64() * 1e9 / (2 * N) as f64);
        let t0 = Instant::now();
        for _ in 0..N {
            for f in &frames {
                let m = read_message(&mut std::hint::black_box(f.as_slice()));
                assert!(m.is_ok(), "probe frame decodes");
            }
        }
        dec.push(t0.elapsed().as_secs_f64() * 1e9 / (2 * N) as f64);
    }
    r.layer("fleet.proto.encode_ns", median(&mut enc));
    r.layer("fleet.proto.decode_ns", median(&mut dec));
}

/// `fleet.transport.pingpong_us`: median round trip of a query frame to
/// an echo thread over a unix-socket `FleetStream` and an answer frame
/// back.
pub fn fleet_transport(dim: usize, r: &mut Report) {
    let listener = FleetListener::bind(Transport::Unix).expect("bind probe socket");
    let addr = listener.addr();
    let mut rtt = std::thread::scope(|s| {
        s.spawn(move || {
            let mut conn = listener.accept().expect("probe accept");
            while let Ok(Message::Query { seq, .. }) = read_message(&mut conn) {
                let answer = Message::Answer { seq, value: 0.5 };
                if write_message(&mut conn, &answer).is_err() {
                    break;
                }
            }
        });
        let mut conn = FleetStream::connect(&addr).expect("probe connect");
        let input: Vec<f64> = (0..dim).map(|d| d as f64).collect();
        let mut rtt = Vec::with_capacity(5000);
        for seq in 0..5000u64 {
            let t0 = Instant::now();
            let q = Message::Query {
                seq,
                plan: 0,
                input: input.clone(),
            };
            write_message(&mut conn, &q).expect("probe write");
            read_message(&mut conn).expect("probe read");
            rtt.push(us(t0.elapsed()));
        }
        conn.shutdown().ok();
        rtt
    });
    r.layer("fleet.transport.pingpong_us", quantile(&mut rtt, 0.5));
}
