//! Property suite for the wire codec: arbitrary `Value`/`Updf`/`Tuple`
//! payloads roundtrip byte-exactly through encode→decode, and corrupted
//! or truncated frames decode to typed errors — never a panic.
//!
//! Arbitrary payloads are generated from a seeded `StdRng` (one seed
//! per proptest case), covering every `Updf` variant, every `Dist`
//! family including nested truncations, derived tuples with shrunken
//! existence and unioned lineage, and mixed-schema batches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ustream_core::lineage::Lineage;
use ustream_core::schema::{DataType, Field, Schema};
use ustream_core::{Tuple, Updf, Value};
use ustream_prob::dist::{Dist, GaussianMixture, MvGaussian};
use ustream_prob::histogram::HistogramPdf;
use ustream_prob::samples::{WeightedSamples, WeightedSamplesNd};
use ustream_server::protocol::{self, Request, Response};
use ustream_server::wire;
use ustream_server::{ErrorCode, MIN_WIRE_VERSION};

fn arb_dist(rng: &mut StdRng, depth: usize) -> Dist {
    let max = if depth == 0 { 8 } else { 7 };
    match rng.gen_range(0..max) {
        0 => Dist::gaussian(rng.gen_range(-50.0..50.0), rng.gen_range(0.01..9.0)),
        1 => {
            let a = rng.gen_range(-20.0..20.0);
            Dist::uniform(a, a + rng.gen_range(0.1..30.0))
        }
        2 => Dist::Exponential(ustream_prob::dist::Exponential::new(
            rng.gen_range(0.01..10.0),
        )),
        3 => Dist::Gamma(ustream_prob::dist::GammaDist::new(
            rng.gen_range(0.2..12.0),
            rng.gen_range(0.1..5.0),
        )),
        4 => Dist::LogNormal(ustream_prob::dist::LogNormal::new(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(0.05..1.5),
        )),
        5 => {
            let a = rng.gen_range(-10.0..10.0);
            let b = a + rng.gen_range(0.5..20.0);
            let c = rng.gen_range(a..b);
            Dist::Triangular(ustream_prob::dist::Triangular::new(a, c, b))
        }
        6 => {
            let k = rng.gen_range(1..4usize);
            let triples: Vec<(f64, f64, f64)> = (0..k)
                .map(|_| {
                    (
                        rng.gen_range(0.05..1.0),
                        rng.gen_range(-30.0..30.0),
                        rng.gen_range(0.1..4.0),
                    )
                })
                .collect();
            Dist::Mixture(GaussianMixture::from_triples(&triples))
        }
        _ => {
            // A truncation of a simpler distribution (possibly nested).
            let inner = arb_dist(rng, depth + 1);
            let center = inner.mean();
            let half = inner.std_dev().max(0.1) * rng.gen_range(0.5..3.0);
            match ustream_prob::dist::Truncated::new(inner, center - half, center + half) {
                Some(t) => Dist::Truncated(t),
                None => Dist::gaussian(0.0, 1.0), // degenerate mass: fall back
            }
        }
    }
}

fn arb_updf(rng: &mut StdRng) -> Updf {
    match rng.gen_range(0..5) {
        0 => Updf::Parametric(arb_dist(rng, 0)),
        1 => {
            let n = rng.gen_range(1..40usize);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..5.0)).collect();
            Updf::Samples(WeightedSamples::new(xs, ws))
        }
        2 => {
            let bins = rng.gen_range(1..64usize);
            let masses: Vec<f64> = (0..bins).map(|_| rng.gen_range(0.0..3.0)).collect();
            let masses = if masses.iter().sum::<f64>() <= 0.0 {
                vec![1.0; bins]
            } else {
                masses
            };
            Updf::Histogram(HistogramPdf::from_masses(
                rng.gen_range(-50.0..50.0),
                rng.gen_range(0.01..2.0),
                masses,
            ))
        }
        3 => {
            let d = rng.gen_range(1..4usize);
            let mean: Vec<f64> = (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect();
            // PSD by construction: A·Aᵀ + εI.
            let a: Vec<f64> = (0..d * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut cov = vec![0.0; d * d];
            for i in 0..d {
                for j in 0..d {
                    let mut s = 0.0;
                    for k in 0..d {
                        s += a[i * d + k] * a[j * d + k];
                    }
                    cov[i * d + j] = s + if i == j { 0.05 } else { 0.0 };
                }
            }
            // Mirror to make the matrix exactly symmetric in floating
            // point (A·Aᵀ is symmetric analytically, and s is computed
            // identically for (i,j) and (j,i), but keep it explicit).
            for i in 0..d {
                for j in (i + 1)..d {
                    cov[j * d + i] = cov[i * d + j];
                }
            }
            Updf::Mv(MvGaussian::new(mean, cov))
        }
        _ => {
            let d = rng.gen_range(1..4usize);
            let n = rng.gen_range(1..20usize);
            let xs: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-20.0..20.0)).collect();
            let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..2.0)).collect();
            Updf::MvSamples(WeightedSamplesNd::new(xs, ws, d))
        }
    }
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..7) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Int(rng.gen()),
        3 => Value::Float(f64::from_bits(rng.gen())), // any bits incl. NaN/inf
        4 => {
            let n = rng.gen_range(0..12usize);
            Value::Str(
                (0..n)
                    .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                    .collect(),
            )
        }
        5 => Value::Time(rng.gen()),
        _ => Value::from(arb_updf(rng)),
    }
}

fn arb_tuple(rng: &mut StdRng) -> Tuple {
    let nfields = rng.gen_range(1..6usize);
    let fields: Vec<Field> = (0..nfields)
        .map(|i| Field::new(format!("f{i}"), DataType::Int))
        .collect();
    let schema: Arc<Schema> = Schema::new(fields);
    let values: Vec<Value> = (0..nfields).map(|_| arb_value(rng)).collect();
    let ts: u64 = rng.gen();
    let existence = rng.gen_range(0.0..1.0);
    let mut lineage = Lineage::empty();
    for _ in 0..rng.gen_range(0..6usize) {
        lineage = lineage.union(&Lineage::base(rng.gen()));
    }
    Tuple::derived(schema, values, ts, existence, lineage)
}

fn encode_value_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_value(&mut out, v);
    out
}

/// Arbitrary protocol request, biased toward the fault-tolerance frames
/// (sequenced publishes, replay-from subscribes, resumes).
fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..8) {
        0 => Request::Hello {
            publisher: rng.gen(),
        },
        1 | 2 => Request::Publish {
            source: format!("src{}", rng.gen_range(0..4u8)),
            port: rng.gen_range(0..4u16),
            seq: if rng.gen() { Some(rng.gen()) } else { None },
            tuples: (0..rng.gen_range(0..4usize))
                .map(|_| arb_tuple(rng))
                .collect(),
        },
        3 => Request::Subscribe {
            from: if rng.gen() { Some(rng.gen()) } else { None },
        },
        4 => Request::Finish,
        5 => Request::Heartbeat {
            watermark: rng.gen(),
        },
        6 => Request::StatsV2,
        _ => Request::Resume {
            token: rng.gen(),
            last_acked_seq: rng.gen(),
        },
    }
}

/// Arbitrary protocol response, biased toward the fault-tolerance
/// frames (tokened hello-acks, sequenced results, resume-oks, gaps).
fn arb_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..9) {
        0 => Response::HelloAck {
            client_id: rng.gen(),
            token: if rng.gen() { Some(rng.gen()) } else { None },
        },
        1 => Response::Ack { count: rng.gen() },
        2 => Response::Error {
            code: match rng.gen_range(0..6u8) {
                0 => ErrorCode::Malformed,
                1 => ErrorCode::UnknownSource,
                2 => ErrorCode::Finished,
                3 => ErrorCode::Protocol,
                4 => ErrorCode::Expired,
                _ => ErrorCode::Lagging,
            },
            message: format!("m{}", rng.gen_range(0..32u8)),
        },
        3 | 4 => Response::Results {
            sink: rng.gen_range(0..8u32),
            seq: if rng.gen() { Some(rng.gen()) } else { None },
            tuples: (0..rng.gen_range(0..4usize))
                .map(|_| arb_tuple(rng))
                .collect(),
        },
        5 | 6 => Response::Eos,
        7 => Response::ResumeOk {
            session_id: rng.gen(),
            last_seq: rng.gen(),
        },
        _ => Response::Gap { missed: rng.gen() },
    }
}

fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    protocol::write_request(&mut out, req).unwrap();
    out
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    protocol::write_response(&mut out, resp).unwrap();
    out
}

/// Hand-build a frame with an explicit version byte (the public writers
/// always stamp the current version).
fn frame_with_version(version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(b"US");
    frame.push(version);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode→decode→encode is byte-identical for arbitrary values
    /// (which transitively exercises every Updf and Dist family).
    #[test]
    fn value_roundtrips_byte_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = arb_value(&mut rng);
        let bytes = encode_value_bytes(&v);
        let mut r = wire::Reader::new(&bytes);
        let back = wire::decode_value(&mut r).expect("valid encoding must decode");
        r.finish().expect("decode must consume the payload exactly");
        prop_assert_eq!(bytes, encode_value_bytes(&back));
    }

    /// Tuples (schema + values + ts + existence + lineage) roundtrip
    /// byte-exactly and preserve all metadata.
    #[test]
    fn tuple_roundtrips_byte_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = arb_tuple(&mut rng);
        let mut bytes = Vec::new();
        wire::encode_tuple(&mut bytes, &t);
        let mut r = wire::Reader::new(&bytes);
        let back = wire::decode_tuple(&mut r).expect("valid encoding must decode");
        r.finish().expect("decode must consume the payload exactly");
        prop_assert_eq!(back.ts, t.ts);
        prop_assert_eq!(back.existence.to_bits(), t.existence.to_bits());
        prop_assert_eq!(back.lineage.clone(), t.lineage.clone());
        prop_assert_eq!(back.schema().fields(), t.schema().fields());
        let mut again = Vec::new();
        wire::encode_tuple(&mut again, &back);
        prop_assert_eq!(bytes, again);
    }

    /// Batches roundtrip byte-exactly whether or not the tuples share a
    /// schema Arc, and a shared schema survives as one Arc.
    #[test]
    fn batch_roundtrips_byte_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared: bool = rng.gen();
        let n = rng.gen_range(0..10usize);
        let tuples: Vec<Tuple> = if shared {
            let proto = arb_tuple(&mut rng);
            let schema = proto.schema().clone();
            (0..n)
                .map(|i| {
                    let vals = (0..schema.len()).map(|_| arb_value(&mut rng)).collect();
                    Tuple::new(schema.clone(), vals, i as u64)
                })
                .collect()
        } else {
            (0..n).map(|_| arb_tuple(&mut rng)).collect()
        };
        let mut bytes = Vec::new();
        wire::encode_tuples(&mut bytes, &tuples);
        let mut r = wire::Reader::new(&bytes);
        let back = wire::decode_tuples(&mut r).expect("valid encoding must decode");
        r.finish().expect("decode must consume the payload exactly");
        prop_assert_eq!(back.len(), tuples.len());
        if shared && n > 1 {
            let batch = ustream_core::Batch::from(back.clone());
            prop_assert!(batch.shared_schema().is_some());
        }
        let mut again = Vec::new();
        wire::encode_tuples(&mut again, &back);
        prop_assert_eq!(bytes, again);
    }

    /// Shared-schema frames decode straight into columns — including
    /// heterogeneous columns that demote to row storage — re-encode
    /// byte-identically from the columnar form, and hydrate to exactly
    /// what the row decoder produces.
    #[test]
    fn columnar_decode_roundtrips_byte_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nfields = rng.gen_range(1..5usize);
        let schema: Arc<Schema> = Schema::new(
            (0..nfields)
                .map(|i| Field::new(format!("f{i}"), DataType::Int))
                .collect(),
        );
        // Per-column payload style: typed columns (Int/Float/Str/
        // Gaussian) or fully arbitrary values, which force that column
        // into the row-fallback representation.
        let styles: Vec<u8> = (0..nfields).map(|_| rng.gen_range(0..5)).collect();
        let n = rng.gen_range(1..30usize);
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                let values: Vec<Value> = styles
                    .iter()
                    .map(|&st| match st {
                        0 => Value::Int(rng.gen()),
                        1 => Value::Float(rng.gen_range(-1e3..1e3)),
                        2 => Value::Str(format!("s{}", rng.gen_range(0..8u8))),
                        3 => Value::from(Updf::Parametric(Dist::gaussian(
                            rng.gen_range(-50.0..50.0),
                            rng.gen_range(0.01..9.0),
                        ))),
                        _ => arb_value(&mut rng),
                    })
                    .collect();
                let mut lineage = Lineage::empty();
                for _ in 0..rng.gen_range(0..4usize) {
                    lineage = lineage.union(&Lineage::base(rng.gen()));
                }
                Tuple::derived(
                    schema.clone(),
                    values,
                    i as u64,
                    rng.gen_range(0.0..1.0),
                    lineage,
                )
            })
            .collect();
        let mut bytes = Vec::new();
        wire::encode_tuples(&mut bytes, &tuples);
        let mut r = wire::Reader::new(&bytes);
        let batch = wire::decode_batch(&mut r).expect("valid encoding must decode");
        r.finish().expect("decode must consume the payload exactly");
        prop_assert!(batch.is_columnar(), "shared-schema frame must decode columnar");
        let mut again = Vec::new();
        wire::encode_batch(&mut again, &batch);
        prop_assert_eq!(&bytes, &again, "columnar re-encode must be byte-identical");
        // Hydration matches the row decoder tuple-for-tuple.
        let rows = batch.into_vec();
        let mut r2 = wire::Reader::new(&bytes);
        let want = wire::decode_tuples(&mut r2).expect("row decode");
        prop_assert_eq!(rows.len(), want.len());
        for (a, b) in rows.iter().zip(&want) {
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.existence.to_bits(), b.existence.to_bits());
            prop_assert_eq!(a.lineage.clone(), b.lineage.clone());
            prop_assert_eq!(format!("{:?}", a.values()), format!("{:?}", b.values()));
        }
    }

    /// Truncating a valid encoding at *any* point yields a typed error
    /// (or, for value payloads, never a panic) — the decoder must not
    /// read past the buffer or allocate from a lying length.
    #[test]
    fn truncated_payloads_are_typed_errors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = arb_tuple(&mut rng);
        let mut bytes = Vec::new();
        wire::encode_tuple(&mut bytes, &t);
        let cut = rng.gen_range(0..bytes.len());
        let mut r = wire::Reader::new(&bytes[..cut]);
        // Must be an error: a tuple encoding is never a prefix of itself.
        prop_assert!(wire::decode_tuple(&mut r).is_err());
    }

    /// Flipping any single byte of a valid encoding either still decodes
    /// (bit flips inside float payloads are legal) or fails with a typed
    /// error — it never panics and never leaves trailing garbage
    /// unnoticed when it does decode.
    #[test]
    fn corrupted_payloads_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = arb_tuple(&mut rng);
        let mut bytes = Vec::new();
        wire::encode_tuple(&mut bytes, &t);
        let idx = rng.gen_range(0..bytes.len());
        let flip: u8 = rng.gen_range(1..=255u8);
        bytes[idx] ^= flip;
        let mut r = wire::Reader::new(&bytes);
        match wire::decode_tuple(&mut r) {
            Ok(_) => {} // e.g. a float payload bit changed value only
            Err(e) => {
                // Typed, displayable error.
                let _ = e.to_string();
            }
        }
    }

    /// Frame-level corruption: headers with bad magic, alien versions,
    /// or oversized lengths are rejected before any payload read.
    #[test]
    fn corrupted_frames_are_typed_errors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, 0x02, b"some payload").unwrap();
        let idx = rng.gen_range(0..frame.len());
        frame[idx] ^= rng.gen_range(1..=255u8);
        match wire::read_frame(&mut frame.as_slice()) {
            Ok((kind, payload)) => {
                // A flipped magic byte must never parse; the kind byte,
                // a shrunken length field, or payload bytes can — and so
                // can the version byte, but only when the flip lands on
                // another *supported* version (e.g. 2 ^ 3 = 1).
                if idx == 2 {
                    prop_assert!(
                        (MIN_WIRE_VERSION..=wire::WIRE_VERSION).contains(&frame[2]),
                        "unsupported version {} parsed",
                        frame[2]
                    );
                } else {
                    prop_assert!(idx >= 3);
                }
                let _ = (kind, payload);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }

    /// Every protocol frame — including the fault-tolerance additions
    /// (sequenced publishes/results, `Resume`/`ResumeOk`/`Gap`,
    /// replay-from subscribes, tokened hello-acks) — roundtrips through
    /// encode→decode→encode byte-identically.
    #[test]
    fn protocol_frames_roundtrip_byte_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = arb_request(&mut rng);
        let bytes = encode_request(&req);
        let back = protocol::read_request(&mut bytes.as_slice())
            .expect("valid request must decode");
        prop_assert_eq!(&bytes, &encode_request(&back));

        let resp = arb_response(&mut rng);
        let bytes = encode_response(&resp);
        let back = protocol::read_response(&mut bytes.as_slice())
            .expect("valid response must decode");
        prop_assert_eq!(&bytes, &encode_response(&back));
    }

    /// Truncating any protocol frame at any point yields a typed error,
    /// never a panic and never a bogus success.
    #[test]
    fn truncated_protocol_frames_are_typed_errors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = if rng.gen() {
            encode_request(&arb_request(&mut rng))
        } else {
            encode_response(&arb_response(&mut rng))
        };
        let cut = rng.gen_range(0..bytes.len());
        let req = protocol::read_request(&mut bytes[..cut].as_ref());
        let resp = protocol::read_response(&mut bytes[..cut].as_ref());
        prop_assert!(req.is_err(), "truncated request decoded: {:?}", req);
        prop_assert!(resp.is_err(), "truncated response decoded: {:?}", resp);
        let _ = (req.unwrap_err().to_string(), resp.unwrap_err().to_string());
    }

    /// Flipping any byte of a protocol frame never panics: the decoder
    /// either still produces a frame (payload-value flips) or fails
    /// with a typed, displayable error.
    #[test]
    fn corrupted_protocol_frames_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let as_request: bool = rng.gen();
        let mut bytes = if as_request {
            encode_request(&arb_request(&mut rng))
        } else {
            encode_response(&arb_response(&mut rng))
        };
        let idx = rng.gen_range(0..bytes.len());
        bytes[idx] ^= rng.gen_range(1..=255u8);
        // Decode under both grammars: untrusted bytes don't announce
        // which side sent them.
        match protocol::read_request(&mut bytes.as_slice()) {
            Ok(frame) => { let _ = format!("{frame:?}"); }
            Err(e) => { let _ = e.to_string(); }
        }
        match protocol::read_response(&mut bytes.as_slice()) {
            Ok(frame) => { let _ = format!("{frame:?}"); }
            Err(e) => { let _ = e.to_string(); }
        }
    }
}

/// Cross-version compatibility: frames a version-1 peer would send —
/// version byte 1, no publish sequences, bare subscribes, 8-byte
/// hello-acks — must still decode on this build, with the extension
/// fields reading as absent.
#[test]
fn version_1_frames_still_decode() {
    // Hello { publisher: true }, version 1.
    let frame = frame_with_version(1, 0x01, &[1]);
    match protocol::read_request(&mut frame.as_slice()).unwrap() {
        Request::Hello { publisher } => assert!(publisher),
        other => panic!("expected Hello, got {other:?}"),
    }

    // Unsequenced Publish: str source, u16 port, empty tuple batch.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_be_bytes());
    payload.extend_from_slice(b"in");
    payload.extend_from_slice(&0u16.to_be_bytes());
    wire::encode_tuples(&mut payload, &[]);
    let frame = frame_with_version(1, 0x02, &payload);
    match protocol::read_request(&mut frame.as_slice()).unwrap() {
        Request::Publish {
            source, seq, port, ..
        } => {
            assert_eq!(source, "in");
            assert_eq!(port, 0);
            assert_eq!(seq, None, "a v1 publish carries no sequence");
        }
        other => panic!("expected Publish, got {other:?}"),
    }

    // Bare Subscribe (empty payload): no replay-from.
    let frame = frame_with_version(1, 0x03, &[]);
    match protocol::read_request(&mut frame.as_slice()).unwrap() {
        Request::Subscribe { from } => assert_eq!(from, None),
        other => panic!("expected Subscribe, got {other:?}"),
    }

    // 8-byte HelloAck: client id only, no session token.
    let frame = frame_with_version(1, 0x81, &77u64.to_be_bytes());
    match protocol::read_response(&mut frame.as_slice()).unwrap() {
        Response::HelloAck { client_id, token } => {
            assert_eq!(client_id, 77);
            assert_eq!(token, None, "a v1 hello-ack carries no token");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
}
