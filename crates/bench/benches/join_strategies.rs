//! Bench for the probabilistic join's match-probability kernels: the
//! Gaussian closed form vs the Monte-Carlo fallback, and the multivariate
//! loc_equals path of Q2 — isotropic locations, and correlated clouds
//! shaped like the RFID T operator's fitted output.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ustream_core::ops::join::{JoinCondition, WindowJoin};
use ustream_core::ops::Operator;
use ustream_core::schema::{DataType, Schema};
use ustream_core::tuple::Tuple;
use ustream_core::updf::Updf;
use ustream_core::value::Value;
use ustream_prob::dist::{Dist, MvGaussian};
use ustream_prob::samples::WeightedSamples;

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_probe_64_candidates");
    group.sample_size(20);

    // Scalar band join, Gaussian closed form.
    {
        let s = Schema::builder().field("x", DataType::Uncertain).build();
        let mk = |ts: u64, mean: f64| {
            Tuple::new(
                s.clone(),
                vec![Value::from(Updf::Parametric(Dist::gaussian(mean, 1.0)))],
                ts,
            )
        };
        group.bench_function("band_gaussian_closed_form", |b| {
            b.iter_batched(
                || {
                    let mut j = WindowJoin::new(
                        1_000_000,
                        JoinCondition::BandUncertain {
                            left_field: "x".into(),
                            right_field: "x".into(),
                            epsilon: 1.0,
                        },
                        0.0,
                    );
                    for i in 0..64 {
                        j.process(0, mk(i, i as f64 * 0.1));
                    }
                    j
                },
                |mut j| j.process(1, mk(100, 3.0)),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // Scalar band join, sample payloads force Monte Carlo.
    {
        let s = Schema::builder().field("x", DataType::Uncertain).build();
        let mk = |ts: u64, mean: f64| {
            let xs: Vec<f64> = (0..64).map(|i| mean + (i as f64 - 32.0) * 0.03).collect();
            Tuple::new(
                s.clone(),
                vec![Value::from(Updf::Samples(WeightedSamples::unweighted(xs)))],
                ts,
            )
        };
        group.bench_function("band_monte_carlo", |b| {
            b.iter_batched(
                || {
                    let mut j = WindowJoin::new(
                        1_000_000,
                        JoinCondition::BandUncertain {
                            left_field: "x".into(),
                            right_field: "x".into(),
                            epsilon: 1.0,
                        },
                        0.0,
                    );
                    for i in 0..64 {
                        j.process(0, mk(i, i as f64 * 0.1));
                    }
                    j
                },
                |mut j| j.process(1, mk(100, 3.0)),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // Q2 loc_equals, diagonal MvGaussian closed form.
    {
        let s = Schema::builder()
            .field("loc", DataType::UncertainVec(2))
            .build();
        let mk = |ts: u64, x: f64| {
            Tuple::new(
                s.clone(),
                vec![Value::from(Updf::Mv(MvGaussian::isotropic(
                    vec![x, x * 0.5],
                    0.5,
                )))],
                ts,
            )
        };
        group.bench_function("loc_equals_mv_gaussian", |b| {
            b.iter_batched(
                || {
                    let mut j = WindowJoin::new(
                        1_000_000,
                        JoinCondition::LocEquals {
                            left_field: "loc".into(),
                            right_field: "loc".into(),
                            epsilon: 2.0,
                        },
                        0.0,
                    );
                    for i in 0..64 {
                        j.process(0, mk(i, i as f64 * 0.3));
                    }
                    j
                },
                |mut j| j.process(1, mk(100, 9.0)),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // Q2 loc_equals over fitted-looking clouds: correlated covariances
    // (sd 0.5–4 ft, |ρ| ≤ 0.8), 56 of the 64 candidates scattered over a
    // 200 × 200 ft floor and 8 within 10 ft of the probe, ε = 8 ft and
    // Q2's min_prob 0.25 — the shape of rfid_capture's Q2 join.
    {
        let s = Schema::builder()
            .field("loc", DataType::UncertainVec(2))
            .build();
        let cloud = |rng: &mut StdRng, x: f64, y: f64| {
            let (sx, sy) = (rng.gen_range(0.5..4.0), rng.gen_range(0.5..4.0));
            let c = rng.gen_range(-0.8..0.8) * sx * sy;
            Updf::Mv(MvGaussian::new(vec![x, y], vec![sx * sx, c, c, sy * sy]))
        };
        let mut rng = StdRng::seed_from_u64(0x0C2);
        let window: Vec<Tuple> = (0..64u64)
            .map(|i| {
                let (x, y) = if i % 8 == 0 {
                    (
                        100.0 + rng.gen_range(-10.0..10.0),
                        100.0 + rng.gen_range(-10.0..10.0),
                    )
                } else {
                    (rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0))
                };
                Tuple::new(s.clone(), vec![Value::from(cloud(&mut rng, x, y))], i)
            })
            .collect();
        let probe = Tuple::new(
            s.clone(),
            vec![Value::from(cloud(&mut rng, 100.0, 100.0))],
            100,
        );
        group.bench_function("loc_equals_fitted_clouds", |b| {
            b.iter_batched(
                || {
                    let mut j = WindowJoin::new(
                        1_000_000,
                        JoinCondition::LocEquals {
                            left_field: "loc".into(),
                            right_field: "loc".into(),
                            epsilon: 8.0,
                        },
                        0.25,
                    );
                    for t in &window {
                        j.process(0, t.clone());
                    }
                    j
                },
                |mut j| j.process(1, probe.clone()),
                criterion::BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
