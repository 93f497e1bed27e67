//! Backend selection and dispatch contracts, exercised end to end:
//!
//! * the `NEUROFAIL_BACKEND` vocabulary (`portable` / `avx2` / `avx512` /
//!   `auto`) and its strict parse;
//! * `default_kind` honouring the environment override — the CI matrix
//!   runs this whole suite once with `NEUROFAIL_BACKEND=portable` and
//!   once with `auto`, so both legs of the env path are executed;
//! * the resolution order of the three selection layers: thread-scoped
//!   `with_backend` beats process-wide `force_backend` beats the env/
//!   detected default;
//! * the saturation-flush invariant (`ops::SATURATION_FLUSH`): a batch
//!   driven deep into sigmoid saturation produces **zero subnormals** in
//!   the forward taps, the backward delta buffers, and the gradients,
//!   under every supported backend — the regression that would fire if a
//!   SIMD kernel dropped the flush.

use neurofail::data::rng::rng;
use neurofail::nn::activation::Activation;
use neurofail::nn::builder::MlpBuilder;
use neurofail::nn::train::{BatchBackpropWs, Grads};
use neurofail::nn::{Layer, Mlp};
use neurofail::tensor::backend::{self, BackendKind};
use neurofail::tensor::init::Init;
use neurofail::tensor::Matrix;

#[test]
fn parse_vocabulary_is_the_env_contract() {
    assert_eq!(BackendKind::parse("portable"), Ok(BackendKind::Portable));
    assert_eq!(BackendKind::parse("avx2"), Ok(BackendKind::Avx2));
    assert_eq!(BackendKind::parse("avx512"), Ok(BackendKind::Avx512));
    assert!(BackendKind::parse("mixed32").is_err());
    assert_eq!(BackendKind::parse(" AVX2 "), Ok(BackendKind::Avx2));
    assert_eq!(BackendKind::parse("auto"), Ok(BackendKind::detect_best()));
    assert_eq!(BackendKind::parse(""), Ok(BackendKind::detect_best()));
    assert!(
        BackendKind::parse("sse9").is_err(),
        "unknown names are errors"
    );
}

#[test]
fn default_kind_honours_the_env_override() {
    let expect = match std::env::var("NEUROFAIL_BACKEND") {
        Ok(v) => BackendKind::parse(&v).expect("CI sets a valid name"),
        Err(_) => BackendKind::detect_best(),
    };
    assert_eq!(backend::default_kind(), expect);
}

#[test]
fn detection_is_coherent() {
    let supported = backend::supported_kinds();
    assert!(supported.contains(&BackendKind::Portable));
    let best = BackendKind::detect_best();
    assert!(best.is_supported());
    for f in backend::detected_features() {
        assert!(
            matches!(f, "avx2" | "fma" | "avx512f"),
            "unexpected feature {f}"
        );
    }
}

#[test]
fn scoped_override_beats_forced_beats_default() {
    let default = backend::default_kind();
    backend::force_backend(Some(BackendKind::Portable));
    assert_eq!(backend::active_kind(), BackendKind::Portable);
    // A thread-scoped override wins over the process-wide force...
    let best = BackendKind::detect_best();
    backend::with_backend(best, || {
        assert_eq!(backend::active_kind(), best);
        // ...and nests.
        backend::with_backend(BackendKind::Portable, || {
            assert_eq!(backend::active_kind(), BackendKind::Portable);
        });
        assert_eq!(backend::active_kind(), best);
    });
    // The force is still in effect once the scope unwinds.
    assert_eq!(backend::active_kind(), BackendKind::Portable);
    backend::force_backend(None);
    assert_eq!(backend::active_kind(), default);
}

/// A 1-input dense sigmoid layer with unit weights: the batch sums are
/// the inputs themselves, so rows can be aimed exactly at the band
/// where `e^{4kx}` underflows into (would-be) subnormal territory.
fn saturating_net() -> Mlp {
    let mut net = MlpBuilder::new(1)
        .dense(3, Activation::Sigmoid { k: 1.0 })
        .dense(3, Activation::Sigmoid { k: 1.0 })
        .init(Init::Xavier)
        .bias(false)
        .build(&mut rng(2));
    if let Layer::Dense(d) = &mut net.layers_mut()[0] {
        d.weights_mut().data_mut().fill(1.0);
    }
    net
}

#[test]
fn saturated_sigmoid_backward_buffers_are_subnormal_free() {
    let net = saturating_net();
    // Rows sweep x from deep saturation (|4kx| ≫ 745, exp underflows to
    // zero) through the subnormal-producing band (708 < |4kx| < 745)
    // back to tame values; both signs.
    let mut rows = Vec::new();
    let mut x = -200.0;
    while x <= 200.0 {
        rows.push(x);
        x += 1.625;
    }
    let xs = Matrix::from_fn(rows.len(), 1, |r, _| rows[r]);
    let ys = vec![0.5; rows.len()];

    for kind in backend::supported_kinds() {
        let (bws, grads) = backend::with_backend(kind, || {
            let mut bws = BatchBackpropWs::for_net(&net, rows.len());
            let mut grads = Grads::zeros_like(&net);
            net.backward_batch(&xs, &ys, &mut bws, &mut grads);
            (bws, grads)
        });
        let ctx = kind.name();
        let scan = |name: &str, vals: &[f64]| {
            for &v in vals {
                assert!(!v.is_subnormal(), "{ctx}: subnormal {v:e} in {name}");
            }
        };
        let mut saturated_zeros = 0usize;
        for (l, (sums, outs)) in bws.fwd.sums.iter().zip(&bws.fwd.outs).enumerate() {
            scan(&format!("layer {l} outs"), outs.data());
            for (&s, &y) in sums.data().iter().zip(outs.data()) {
                if s < -150.0 && y == 0.0 {
                    saturated_zeros += 1;
                }
            }
        }
        assert!(
            saturated_zeros > 0,
            "{ctx}: the batch never reached the flush band — vacuous test"
        );
        for (l, delta) in bws.delta.iter().enumerate() {
            scan(&format!("layer {l} delta"), delta.data());
        }
        for (l, lg) in grads.layers.iter().enumerate() {
            scan(&format!("layer {l} grad w"), lg.w.data());
            scan(&format!("layer {l} grad b"), &lg.b);
        }
        scan("output grads", &grads.output);
        scan("output bias grad", &[grads.output_bias]);
    }
}
