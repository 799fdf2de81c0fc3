//! The wire codec: a versioned, length-prefixed binary frame format for
//! everything the engine ships over a socket — [`Value`]s, [`Updf`]
//! payloads (all five variants), [`Tuple`]s (values + timestamp +
//! existence + lineage), and batches of tuples.
//!
//! Design rules:
//!
//! - **Deterministic bytes.** Encoding is a pure function of the input,
//!   and decoding reconstructs exactly what was encoded: every numeric
//!   field travels as raw big-endian bits (floats via `to_bits`), and
//!   the decode path uses non-renormalizing constructors
//!   ([`WeightedSamples::from_normalized`] and friends) so
//!   encode→decode→encode is byte-identical. The equivalence and
//!   property suites lean on this.
//! - **Typed errors, never panics.** Every invariant the in-memory
//!   constructors `assert!` is validated here first and surfaced as a
//!   [`WireError`]; truncated or bit-flipped frames must decode to an
//!   `Err`, not unwind a server thread. Length fields are checked
//!   against the remaining payload *before* any allocation, so a
//!   corrupted count cannot balloon memory.
//! - **Versioned frames.** Every frame starts with magic bytes, a codec
//!   version, a frame kind, and a payload length
//!   ([`FRAME_HEADER_LEN`] bytes total); unknown versions are rejected
//!   up front so the format can evolve.
//! - **One schema `Arc` per stream.** The schema of every shared-schema
//!   batch (the framing [`encode_tuples`] writes for a stream's run) is
//!   interned against a process-wide set of canonical `Arc`s, so
//!   value-equal schemas from different frames, connections and
//!   publishers decode to the *same* `Arc`. The engine's caches key on `Arc::ptr_eq`
//!   (select's and project's field resolution, project's output schema,
//!   the aggregate's column buffer, [`Batch::columnarize`] across
//!   frames), so a fresh `Arc` per frame would miss every one of them.
//!   The set holds at most [`MAX_INTERNED_SCHEMAS`] schemas; once it is
//!   full, a schema it does not hold keeps its own `Arc` and decodes
//!   exactly as before, only without the shared pointer. A mixed-schema
//!   batch keeps one fresh `Arc` per tuple, as it was encoded: interning
//!   two value-equal schemas there would turn the batch into a
//!   shared-schema one on re-encode and break the byte-exact roundtrip.

use std::collections::HashSet;
use std::io::{IoSlice, Read, Write};
use std::sync::{Arc, Mutex, OnceLock};
use ustream_core::lineage::Lineage;
use ustream_core::schema::{DataType, Field, Schema};
use ustream_core::{Batch, Column, Columns, Tuple, Updf, Value};
use ustream_prob::dist::{Dist, Gaussian, GaussianMixture, MixtureComponent, MvGaussian};
use ustream_prob::histogram::HistogramPdf;
use ustream_prob::samples::{WeightedSamples, WeightedSamplesNd};

/// First magic byte of every frame (`b"US"` = uncertain streams).
pub const MAGIC: [u8; 2] = *b"US";
/// Codec version this build writes. Version 2 added the fault-tolerance
/// frames (`Resume`/`ResumeOk`/`Gap`, sequenced publishes, sequenced
/// results, session tokens in `HelloAck`).
pub const WIRE_VERSION: u8 = 2;
/// Oldest codec version this build still accepts. Version-1 frames
/// (e.g. a `Hello` from a pre-lease client) decode unchanged — the new
/// payloads all live behind new frame kinds or are length-discriminated,
/// so old shapes stay valid.
pub const MIN_WIRE_VERSION: u8 = 1;
/// Frame header: magic(2) + version(1) + kind(1) + payload length(4).
pub const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on a single frame's payload — a corrupted length field
/// must not make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Nesting bound for recursive payloads (truncations of truncations):
/// real pipelines nest once or twice; a hostile frame must not recurse
/// the decoder off the stack.
const MAX_DIST_DEPTH: u8 = 16;

/// Typed decode/transport failures. Decoding untrusted bytes returns
/// these; it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field could be read.
    Truncated { needed: usize, have: usize },
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The frame's codec version is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// A variant tag byte was out of range for its type.
    UnknownTag { what: &'static str, tag: u8 },
    /// A field violated a semantic invariant (negative weight, existence
    /// outside [0, 1], unsorted lineage, indefinite covariance…).
    InvalidPayload(&'static str),
    /// The frame header announced a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes(usize),
    /// The peer closed the connection at a frame boundary.
    Disconnected,
    /// An I/O error while reading or writing a frame.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
                )
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::InvalidPayload(msg) => write!(f, "invalid payload: {msg}"),
            WireError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Cursor over a payload slice: every read checks the remaining length
// first, so a lying count field yields `Truncated`, not a panic or an
// unbounded allocation.
// ---------------------------------------------------------------------

/// Bounds-checked reader over one frame payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_be_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` length prefix followed by that many UTF-8 bytes.
    pub fn str(&mut self) -> WireResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidPayload("non-UTF-8 string"))
    }

    /// `n` raw f64s (the count was validated against `remaining` here,
    /// before allocation).
    pub fn f64_vec(&mut self, n: usize) -> WireResult<Vec<f64>> {
        let bytes_needed = n
            .checked_mul(8)
            .ok_or(WireError::InvalidPayload("length overflow"))?;
        if bytes_needed > self.remaining() {
            return Err(WireError::Truncated {
                needed: bytes_needed,
                have: self.remaining(),
            });
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Look ahead `n` bytes without consuming them (`None` when fewer
    /// remain) — lets the batch decoder recognize a fixed tag sequence
    /// and take a columnar fast path.
    pub fn peek(&self, n: usize) -> Option<&'a [u8]> {
        self.buf.get(self.pos..self.pos + n)
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_be_bytes());
}

// ---------------------------------------------------------------------
// Dist
// ---------------------------------------------------------------------

const DIST_GAUSSIAN: u8 = 0;
const DIST_UNIFORM: u8 = 1;
const DIST_EXPONENTIAL: u8 = 2;
const DIST_GAMMA: u8 = 3;
const DIST_LOGNORMAL: u8 = 4;
const DIST_TRIANGULAR: u8 = 5;
const DIST_MIXTURE: u8 = 6;
const DIST_TRUNCATED: u8 = 7;

/// Encode a parametric distribution. Truncations encode `(inner, lo,
/// hi)` only; the decode side reconstructs the cached mass/moments
/// deterministically.
pub fn encode_dist(out: &mut Vec<u8>, d: &Dist) {
    match d {
        Dist::Gaussian(g) => {
            out.push(DIST_GAUSSIAN);
            put_f64(out, g.mean());
            put_f64(out, g.std_dev());
        }
        Dist::Uniform(u) => {
            out.push(DIST_UNIFORM);
            put_f64(out, u.lo());
            put_f64(out, u.hi());
        }
        Dist::Exponential(e) => {
            out.push(DIST_EXPONENTIAL);
            put_f64(out, e.rate());
        }
        Dist::Gamma(g) => {
            out.push(DIST_GAMMA);
            put_f64(out, g.shape());
            put_f64(out, g.scale());
        }
        Dist::LogNormal(l) => {
            out.push(DIST_LOGNORMAL);
            put_f64(out, l.mu());
            put_f64(out, l.sigma());
        }
        Dist::Triangular(t) => {
            out.push(DIST_TRIANGULAR);
            put_f64(out, t.lo());
            put_f64(out, t.mode());
            put_f64(out, t.hi());
        }
        Dist::Mixture(m) => {
            out.push(DIST_MIXTURE);
            out.extend_from_slice(&(m.num_components() as u32).to_be_bytes());
            for c in m.components() {
                put_f64(out, c.weight);
                put_f64(out, c.dist.mean());
                put_f64(out, c.dist.std_dev());
            }
        }
        Dist::Truncated(t) => {
            out.push(DIST_TRUNCATED);
            encode_dist(out, t.inner());
            let (lo, hi) = t.bounds();
            put_f64(out, lo);
            put_f64(out, hi);
        }
    }
}

fn decode_gaussian(mean: f64, sd: f64) -> WireResult<Gaussian> {
    if !(mean.is_finite() && sd > 0.0 && sd.is_finite()) {
        return Err(WireError::InvalidPayload(
            "gaussian needs finite mean, sd > 0",
        ));
    }
    Ok(Gaussian::new(mean, sd))
}

pub fn decode_dist(r: &mut Reader<'_>) -> WireResult<Dist> {
    decode_dist_depth(r, 0)
}

fn decode_dist_depth(r: &mut Reader<'_>, depth: u8) -> WireResult<Dist> {
    if depth >= MAX_DIST_DEPTH {
        return Err(WireError::InvalidPayload("distribution nesting too deep"));
    }
    let tag = r.u8()?;
    match tag {
        DIST_GAUSSIAN => Ok(Dist::Gaussian(decode_gaussian(r.f64()?, r.f64()?)?)),
        DIST_UNIFORM => {
            let (a, b) = (r.f64()?, r.f64()?);
            if !(a.is_finite() && b.is_finite() && b > a) {
                return Err(WireError::InvalidPayload("uniform needs finite b > a"));
            }
            Ok(Dist::uniform(a, b))
        }
        DIST_EXPONENTIAL => {
            let rate = r.f64()?;
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(WireError::InvalidPayload("exponential needs rate > 0"));
            }
            Ok(Dist::Exponential(ustream_prob::dist::Exponential::new(
                rate,
            )))
        }
        DIST_GAMMA => {
            let (shape, scale) = (r.f64()?, r.f64()?);
            if !(shape > 0.0 && shape.is_finite() && scale > 0.0 && scale.is_finite()) {
                return Err(WireError::InvalidPayload("gamma needs shape, scale > 0"));
            }
            Ok(Dist::Gamma(ustream_prob::dist::GammaDist::new(
                shape, scale,
            )))
        }
        DIST_LOGNORMAL => {
            let (mu, sigma) = (r.f64()?, r.f64()?);
            if !(mu.is_finite() && sigma > 0.0 && sigma.is_finite()) {
                return Err(WireError::InvalidPayload(
                    "lognormal needs finite mu, sigma > 0",
                ));
            }
            Ok(Dist::LogNormal(ustream_prob::dist::LogNormal::new(
                mu, sigma,
            )))
        }
        DIST_TRIANGULAR => {
            let (a, c, b) = (r.f64()?, r.f64()?, r.f64()?);
            let finite = a.is_finite() && b.is_finite() && c.is_finite();
            if !(finite && a <= c && c <= b && a < b) {
                return Err(WireError::InvalidPayload(
                    "triangular needs a <= c <= b, a < b",
                ));
            }
            Ok(Dist::Triangular(ustream_prob::dist::Triangular::new(
                a, c, b,
            )))
        }
        DIST_MIXTURE => {
            let n = r.u32()? as usize;
            // Each component is 24 bytes; reject lying counts up front.
            let needed = n
                .checked_mul(24)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            if needed > r.remaining() {
                return Err(WireError::Truncated {
                    needed,
                    have: r.remaining(),
                });
            }
            let mut comps = Vec::with_capacity(n);
            for _ in 0..n {
                let weight = r.f64()?;
                let dist = decode_gaussian(r.f64()?, r.f64()?)?;
                comps.push(MixtureComponent { weight, dist });
            }
            GaussianMixture::from_normalized(comps)
                .map(Dist::Mixture)
                .ok_or(WireError::InvalidPayload("mixture weights not normalized"))
        }
        DIST_TRUNCATED => {
            let inner = decode_dist_depth(r, depth + 1)?;
            let (lo, hi) = (r.f64()?, r.f64()?);
            // NaN bounds must be rejected too, hence the explicit
            // partial comparison instead of `hi <= lo`.
            if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
                return Err(WireError::InvalidPayload("truncation needs hi > lo"));
            }
            ustream_prob::dist::Truncated::new(inner, lo, hi)
                .map(Dist::Truncated)
                .ok_or(WireError::InvalidPayload(
                    "truncation interval carries no mass",
                ))
        }
        tag => Err(WireError::UnknownTag { what: "Dist", tag }),
    }
}

// ---------------------------------------------------------------------
// Updf
// ---------------------------------------------------------------------

const UPDF_PARAMETRIC: u8 = 0;
const UPDF_SAMPLES: u8 = 1;
const UPDF_HISTOGRAM: u8 = 2;
const UPDF_MV: u8 = 3;
const UPDF_MV_SAMPLES: u8 = 4;

/// Encode a tuple-level distribution payload (all five variants).
pub fn encode_updf(out: &mut Vec<u8>, u: &Updf) {
    match u {
        Updf::Parametric(d) => {
            out.push(UPDF_PARAMETRIC);
            encode_dist(out, d);
        }
        Updf::Samples(s) => {
            out.push(UPDF_SAMPLES);
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            for &x in s.values() {
                put_f64(out, x);
            }
            for &w in s.weights() {
                put_f64(out, w);
            }
        }
        Updf::Histogram(h) => {
            out.push(UPDF_HISTOGRAM);
            put_f64(out, h.lo());
            put_f64(out, h.bin_width());
            out.extend_from_slice(&(h.num_bins() as u32).to_be_bytes());
            for &m in h.masses() {
                put_f64(out, m);
            }
        }
        Updf::Mv(mv) => {
            out.push(UPDF_MV);
            out.extend_from_slice(&(mv.dim() as u32).to_be_bytes());
            for &m in mv.mean() {
                put_f64(out, m);
            }
            for &c in mv.cov() {
                put_f64(out, c);
            }
        }
        Updf::MvSamples(s) => {
            out.push(UPDF_MV_SAMPLES);
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(&(s.dim() as u32).to_be_bytes());
            for i in 0..s.len() {
                for &x in s.point(i) {
                    put_f64(out, x);
                }
            }
            for i in 0..s.len() {
                put_f64(out, s.weight(i));
            }
        }
    }
}

pub fn decode_updf(r: &mut Reader<'_>) -> WireResult<Updf> {
    let tag = r.u8()?;
    match tag {
        UPDF_PARAMETRIC => Ok(Updf::Parametric(decode_dist(r)?)),
        UPDF_SAMPLES => {
            let n = r.u32()? as usize;
            let xs = r.f64_vec(n)?;
            let ws = r.f64_vec(n)?;
            WeightedSamples::from_normalized(xs, ws)
                .map(Updf::Samples)
                .ok_or(WireError::InvalidPayload("sample weights not normalized"))
        }
        UPDF_HISTOGRAM => {
            let lo = r.f64()?;
            let width = r.f64()?;
            let bins = r.u32()? as usize;
            let masses = r.f64_vec(bins)?;
            HistogramPdf::from_normalized_masses(lo, width, masses)
                .map(Updf::Histogram)
                .ok_or(WireError::InvalidPayload("histogram masses not normalized"))
        }
        UPDF_MV => {
            let d = r.u32()? as usize;
            let mean = r.f64_vec(d)?;
            let cov_len = d
                .checked_mul(d)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            let cov = r.f64_vec(cov_len)?;
            MvGaussian::try_new(mean, cov)
                .map(Updf::Mv)
                .ok_or(WireError::InvalidPayload(
                    "covariance not symmetric positive definite",
                ))
        }
        UPDF_MV_SAMPLES => {
            let n = r.u32()? as usize;
            let d = r.u32()? as usize;
            let xs_len = n
                .checked_mul(d)
                .ok_or(WireError::InvalidPayload("length overflow"))?;
            let xs = r.f64_vec(xs_len)?;
            let ws = r.f64_vec(n)?;
            WeightedSamplesNd::from_normalized(xs, ws, d)
                .map(Updf::MvSamples)
                .ok_or(WireError::InvalidPayload(
                    "mv sample weights not normalized",
                ))
        }
        tag => Err(WireError::UnknownTag { what: "Updf", tag }),
    }
}

// ---------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_STR: u8 = 4;
const VALUE_TIME: u8 = 5;
const VALUE_UNCERTAIN: u8 = 6;

pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VALUE_NULL),
        Value::Bool(b) => {
            out.push(VALUE_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(VALUE_FLOAT);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
        Value::Time(t) => {
            out.push(VALUE_TIME);
            out.extend_from_slice(&t.to_be_bytes());
        }
        Value::Uncertain(u) => {
            out.push(VALUE_UNCERTAIN);
            encode_updf(out, u);
        }
    }
}

pub fn decode_value(r: &mut Reader<'_>) -> WireResult<Value> {
    let tag = r.u8()?;
    match tag {
        VALUE_NULL => Ok(Value::Null),
        VALUE_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            tag => Err(WireError::UnknownTag { what: "Bool", tag }),
        },
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        VALUE_TIME => Ok(Value::Time(r.u64()?)),
        VALUE_UNCERTAIN => Ok(Value::Uncertain(Box::new(decode_updf(r)?))),
        tag => Err(WireError::UnknownTag { what: "Value", tag }),
    }
}

// ---------------------------------------------------------------------
// Schema / Tuple / Batch
// ---------------------------------------------------------------------

const DTYPE_BOOL: u8 = 0;
const DTYPE_INT: u8 = 1;
const DTYPE_FLOAT: u8 = 2;
const DTYPE_STR: u8 = 3;
const DTYPE_TIME: u8 = 4;
const DTYPE_UNCERTAIN: u8 = 5;
const DTYPE_UNCERTAIN_VEC: u8 = 6;

pub fn encode_schema(out: &mut Vec<u8>, s: &Schema) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    for f in s.fields() {
        put_str(out, &f.name);
        match f.dtype {
            DataType::Bool => out.push(DTYPE_BOOL),
            DataType::Int => out.push(DTYPE_INT),
            DataType::Float => out.push(DTYPE_FLOAT),
            DataType::Str => out.push(DTYPE_STR),
            DataType::Time => out.push(DTYPE_TIME),
            DataType::Uncertain => out.push(DTYPE_UNCERTAIN),
            DataType::UncertainVec(d) => {
                out.push(DTYPE_UNCERTAIN_VEC);
                out.extend_from_slice(&(d as u32).to_be_bytes());
            }
        }
    }
}

pub fn decode_schema(r: &mut Reader<'_>) -> WireResult<Arc<Schema>> {
    let n = r.u32()? as usize;
    // Each field costs at least 5 bytes (empty name + dtype tag).
    let floor = n
        .checked_mul(5)
        .ok_or(WireError::InvalidPayload("length overflow"))?;
    if floor > r.remaining() {
        return Err(WireError::Truncated {
            needed: floor,
            have: r.remaining(),
        });
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dtype = match r.u8()? {
            DTYPE_BOOL => DataType::Bool,
            DTYPE_INT => DataType::Int,
            DTYPE_FLOAT => DataType::Float,
            DTYPE_STR => DataType::Str,
            DTYPE_TIME => DataType::Time,
            DTYPE_UNCERTAIN => DataType::Uncertain,
            DTYPE_UNCERTAIN_VEC => DataType::UncertainVec(r.u32()? as usize),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "DataType",
                    tag,
                })
            }
        };
        if fields.iter().any(|f: &Field| f.name == name) {
            return Err(WireError::InvalidPayload("duplicate schema field name"));
        }
        fields.push(Field::new(name, dtype));
    }
    Ok(Schema::new(fields))
}

/// Most distinct schemas the process-wide intern set holds. A server
/// sees one schema per source stream and a few derived ones, so the cap
/// only matters against a peer that invents schemas; it bounds the
/// set's memory, never correctness.
pub const MAX_INTERNED_SCHEMAS: usize = 256;

/// [`decode_schema`] for a shared-schema batch, returning the canonical
/// `Arc` for the schema's value: the one already interned, else the
/// decoded one, interned while the set has room.
fn decode_shared_schema(r: &mut Reader<'_>) -> WireResult<Arc<Schema>> {
    let schema = decode_schema(r)?;
    static INTERNED: OnceLock<Mutex<HashSet<Arc<Schema>>>> = OnceLock::new();
    let set = INTERNED.get_or_init(Default::default);
    // The set is only ever inserted into, so a poisoned lock still
    // guards a consistent set.
    let mut set = set.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(canonical) = set.get(schema.as_ref()) {
        return Ok(canonical.clone());
    }
    if set.len() < MAX_INTERNED_SCHEMAS {
        set.insert(schema.clone());
    }
    Ok(schema)
}

/// Tuple body: the per-tuple part that follows a schema (values in
/// schema order, then ts, existence, lineage).
fn encode_tuple_body(out: &mut Vec<u8>, t: &Tuple) {
    for v in t.values() {
        encode_value(out, v);
    }
    out.extend_from_slice(&t.ts.to_be_bytes());
    put_f64(out, t.existence);
    let ids = t.lineage.ids();
    out.extend_from_slice(&(ids.len() as u32).to_be_bytes());
    for &id in ids {
        out.extend_from_slice(&id.to_be_bytes());
    }
}

fn decode_tuple_body(r: &mut Reader<'_>, schema: Arc<Schema>) -> WireResult<Tuple> {
    let mut values = Vec::with_capacity(schema.len());
    for _ in 0..schema.len() {
        values.push(decode_value(r)?);
    }
    let ts = r.u64()?;
    let existence = r.f64()?;
    if !(0.0..=1.0).contains(&existence) {
        return Err(WireError::InvalidPayload("existence outside [0, 1]"));
    }
    let n_ids = r.u32()? as usize;
    let id_bytes = n_ids
        .checked_mul(8)
        .ok_or(WireError::InvalidPayload("length overflow"))?;
    if id_bytes > r.remaining() {
        return Err(WireError::Truncated {
            needed: id_bytes,
            have: r.remaining(),
        });
    }
    let ids: Vec<u64> = (0..n_ids).map(|_| r.u64()).collect::<WireResult<_>>()?;
    let lineage = Lineage::from_sorted_ids(ids).ok_or(WireError::InvalidPayload(
        "lineage ids not strictly increasing",
    ))?;
    Ok(Tuple::derived(schema, values, ts, existence, lineage))
}

/// Encode one tuple with its schema.
pub fn encode_tuple(out: &mut Vec<u8>, t: &Tuple) {
    encode_schema(out, t.schema());
    encode_tuple_body(out, t);
}

pub fn decode_tuple(r: &mut Reader<'_>) -> WireResult<Tuple> {
    let schema = decode_schema(r)?;
    decode_tuple_body(r, schema)
}

const BATCH_MIXED: u8 = 0;
const BATCH_SHARED_SCHEMA: u8 = 1;

/// Encode a run of tuples. When every tuple shares one schema `Arc` the
/// schema is written once and the decoded batch shares a single `Arc`
/// again, preserving the engine's [`Batch::shared_schema`] fast path
/// end to end across the wire.
pub fn encode_tuples(out: &mut Vec<u8>, tuples: &[Tuple]) {
    let shared = match tuples.first() {
        Some(first) => tuples
            .iter()
            .skip(1)
            .all(|t| Arc::ptr_eq(t.schema(), first.schema()))
            .then(|| first.schema().clone()),
        None => None,
    };
    match shared {
        Some(schema) => {
            out.push(BATCH_SHARED_SCHEMA);
            encode_schema(out, &schema);
            out.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
            for t in tuples {
                encode_tuple_body(out, t);
            }
        }
        None => {
            out.push(BATCH_MIXED);
            out.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
            for t in tuples {
                encode_tuple(out, t);
            }
        }
    }
}

pub fn decode_tuples(r: &mut Reader<'_>) -> WireResult<Vec<Tuple>> {
    match r.u8()? {
        BATCH_SHARED_SCHEMA => {
            let schema = decode_shared_schema(r)?;
            let n = r.u32()? as usize;
            let mut tuples = Vec::new();
            for _ in 0..n {
                tuples.push(decode_tuple_body(r, schema.clone())?);
            }
            Ok(tuples)
        }
        BATCH_MIXED => {
            let n = r.u32()? as usize;
            let mut tuples = Vec::new();
            for _ in 0..n {
                tuples.push(decode_tuple(r)?);
            }
            Ok(tuples)
        }
        tag => Err(WireError::UnknownTag { what: "Batch", tag }),
    }
}

/// [`encode_tuples`] over a [`Batch`]. A columnar batch is encoded
/// straight from its columns without materializing tuples; the
/// decomposition is lossless, so the bytes are identical to hydrating
/// first.
pub fn encode_batch(out: &mut Vec<u8>, batch: &Batch) {
    match batch.columns() {
        Some(cols) if !cols.is_empty() => encode_columns(out, cols),
        Some(_) => encode_tuples(out, &[]),
        None => encode_tuples(out, batch.as_slice()),
    }
}

/// Row-major encode from columns. A `Columns` always carries one shared
/// schema `Arc`, so this is always the [`BATCH_SHARED_SCHEMA`] framing —
/// the same branch [`encode_tuples`] takes for the hydrated rows.
fn encode_columns(out: &mut Vec<u8>, cols: &Columns) {
    out.push(BATCH_SHARED_SCHEMA);
    encode_schema(out, cols.schema());
    out.extend_from_slice(&(cols.len() as u32).to_be_bytes());
    for r in 0..cols.len() {
        for c in 0..cols.num_cols() {
            encode_cell(out, cols.col(c), r);
        }
        out.extend_from_slice(&cols.ts()[r].to_be_bytes());
        put_f64(out, cols.existence()[r]);
        let ids = cols.lineage()[r].ids();
        out.extend_from_slice(&(ids.len() as u32).to_be_bytes());
        for &id in ids {
            out.extend_from_slice(&id.to_be_bytes());
        }
    }
}

/// Encode one column cell exactly as [`encode_value`] would encode the
/// reconstructed `Value`.
fn encode_cell(out: &mut Vec<u8>, col: &Column, r: usize) {
    match col {
        Column::Int(xs) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&xs[r].to_be_bytes());
        }
        Column::Float(xs) => {
            out.push(VALUE_FLOAT);
            put_f64(out, xs[r]);
        }
        Column::Time(xs) => {
            out.push(VALUE_TIME);
            out.extend_from_slice(&xs[r].to_be_bytes());
        }
        Column::Str { codes, dict } => {
            out.push(VALUE_STR);
            put_str(out, &dict[codes[r] as usize]);
        }
        Column::Gaussian { mean, sd } => {
            out.push(VALUE_UNCERTAIN);
            out.push(UPDF_PARAMETRIC);
            out.push(DIST_GAUSSIAN);
            put_f64(out, mean[r]);
            put_f64(out, sd[r]);
        }
        Column::Rows(vs) => encode_value(out, &vs[r]),
    }
}

/// The three-byte tag prefix of a parametric-Gaussian uncertain value —
/// the cell shape the columnar decoder turns into `(mean, sd)` column
/// entries without boxing an `Updf`.
const GAUSSIAN_CELL_TAGS: [u8; 3] = [VALUE_UNCERTAIN, UPDF_PARAMETRIC, DIST_GAUSSIAN];

/// Decode one shared-schema tuple body directly into columns, applying
/// the same validation as [`decode_tuple_body`].
///
/// Once a column has settled on a typed layout, a cell whose wire tag
/// matches it decodes straight into the column vector — no
/// intermediate `Value`. Mismatched tags (and the first row, while
/// columns are still untyped) fall back to the generic
/// decode-then-push path, which carries the demotion logic. The fast
/// paths read exactly the bytes [`decode_value`] would and apply the
/// same validation (Int/Float/Time cells have none), so accepted
/// payloads and resulting columns are identical.
fn decode_row_into(r: &mut Reader<'_>, cols: &mut Columns) -> WireResult<()> {
    for c in 0..cols.num_cols() {
        match cols.col_mut(c) {
            Column::Int(xs) if r.peek(1) == Some(&[VALUE_INT]) => {
                r.bytes(1)?;
                xs.push(r.i64()?);
            }
            Column::Float(xs) if r.peek(1) == Some(&[VALUE_FLOAT]) => {
                r.bytes(1)?;
                xs.push(r.f64()?);
            }
            Column::Time(xs) if r.peek(1) == Some(&[VALUE_TIME]) => {
                r.bytes(1)?;
                xs.push(r.u64()?);
            }
            col => {
                if r.peek(3) == Some(&GAUSSIAN_CELL_TAGS) {
                    r.bytes(3)?;
                    let (mean, sd) = (r.f64()?, r.f64()?);
                    decode_gaussian(mean, sd)?;
                    col.push_gaussian(mean, sd);
                } else {
                    let v = decode_value(r)?;
                    col.push_value(v);
                }
            }
        }
    }
    let ts = r.u64()?;
    let existence = r.f64()?;
    if !(0.0..=1.0).contains(&existence) {
        return Err(WireError::InvalidPayload("existence outside [0, 1]"));
    }
    let n_ids = r.u32()? as usize;
    let id_bytes = n_ids
        .checked_mul(8)
        .ok_or(WireError::InvalidPayload("length overflow"))?;
    if id_bytes > r.remaining() {
        return Err(WireError::Truncated {
            needed: id_bytes,
            have: r.remaining(),
        });
    }
    let ids: Vec<u64> = (0..n_ids).map(|_| r.u64()).collect::<WireResult<_>>()?;
    let lineage = Lineage::from_sorted_ids(ids).ok_or(WireError::InvalidPayload(
        "lineage ids not strictly increasing",
    ))?;
    cols.push_meta(ts, existence, lineage);
    Ok(())
}

/// Decode a batch. Shared-schema frames decode **in place into the
/// columnar layout**: each value lands directly in its typed column
/// (parametric Gaussians as raw `(mean, sd)` pairs), so downstream
/// operators get vectorized input without a row → column conversion
/// pass. Mixed-schema frames decode to rows as before. Validation is
/// identical to [`decode_tuples`] either way.
pub fn decode_batch(r: &mut Reader<'_>) -> WireResult<Batch> {
    match r.u8()? {
        BATCH_SHARED_SCHEMA => {
            let schema = decode_shared_schema(r)?;
            let n = r.u32()? as usize;
            if n == 0 {
                return Ok(Batch::new());
            }
            // Reserve only what the payload can hold (a row is at least
            // its 20 bytes of ts, existence and lineage count), so a
            // lying count cannot balloon memory before decoding fails.
            let mut cols = Columns::with_capacity(schema, n.min(r.remaining() / 20));
            for _ in 0..n {
                decode_row_into(r, &mut cols)?;
            }
            Ok(Batch::from_columns(cols))
        }
        BATCH_MIXED => {
            let n = r.u32()? as usize;
            let mut tuples = Vec::new();
            for _ in 0..n {
                tuples.push(decode_tuple(r)?);
            }
            Ok(Batch::from(tuples))
        }
        tag => Err(WireError::UnknownTag { what: "Batch", tag }),
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one `[magic, version, kind, len, payload]` frame as **one**
/// vectored write of header + payload (looping only on a short write),
/// so the frame leaves in one segment. Header and payload as two writes
/// is the classic write-write-read pattern: on a socket without
/// `TCP_NODELAY` the second write waits out the peer's delayed-ACK timer
/// (~40 ms on Linux) on every request/response round trip.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> WireResult<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(payload.len()));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..2].copy_from_slice(&MAGIC);
    header[2] = WIRE_VERSION;
    header[3] = kind;
    header[4..8].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(WireError::Io(std::io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame, returning `(kind, payload)`. A connection closed
/// cleanly *between* frames yields [`WireError::Disconnected`]; closed
/// mid-frame yields an I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> WireResult<(u8, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Disconnected),
            Ok(0) => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&header[2]) {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let kind = header[3];
    let len = u32::from_be_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_prob::dist::Truncated;

    fn roundtrip_value(v: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(&mut bytes, v);
        let mut r = Reader::new(&bytes);
        let back = decode_value(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        // Byte-exactness: re-encoding the decoded value reproduces the
        // original bytes.
        let mut again = Vec::new();
        encode_value(&mut again, &back);
        assert_eq!(bytes, again, "encode→decode→encode must be byte-stable");
        back
    }

    #[test]
    fn scalar_values_roundtrip() {
        roundtrip_value(&Value::Null);
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Int(-913));
        roundtrip_value(&Value::Float(3.5e-9));
        roundtrip_value(&Value::Float(f64::NAN)); // bits survive
        roundtrip_value(&Value::Str("zone-α".into()));
        roundtrip_value(&Value::Time(88_000));
    }

    #[test]
    fn every_dist_variant_roundtrips() {
        let dists = vec![
            Dist::gaussian(1.5, 0.5),
            Dist::uniform(-1.0, 4.0),
            Dist::Exponential(ustream_prob::dist::Exponential::new(0.25)),
            Dist::Gamma(ustream_prob::dist::GammaDist::new(2.0, 1.5)),
            Dist::LogNormal(ustream_prob::dist::LogNormal::new(0.1, 0.9)),
            Dist::Triangular(ustream_prob::dist::Triangular::new(0.0, 1.0, 3.0)),
            Dist::Mixture(GaussianMixture::from_triples(&[
                (0.25, -2.0, 0.5),
                (0.75, 3.0, 1.0),
            ])),
            Dist::Truncated(Truncated::new(Dist::gaussian(0.0, 1.0), -1.0, 2.0).unwrap()),
        ];
        for d in &dists {
            let v = roundtrip_value(&Value::from(Updf::Parametric(d.clone())));
            let u = v.as_updf().unwrap();
            assert!((u.mean() - Updf::Parametric(d.clone()).mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn every_updf_variant_roundtrips() {
        let mv = MvGaussian::new(vec![1.0, -1.0], vec![1.0, 0.3, 0.3, 2.0]);
        let updfs = vec![
            Updf::Parametric(Dist::gaussian(0.0, 1.0)),
            Updf::Samples(WeightedSamples::new(
                vec![1.0, 2.0, 4.0],
                vec![1.0, 2.0, 1.0],
            )),
            Updf::Histogram(HistogramPdf::from_masses(0.0, 0.5, vec![1.0, 3.0, 1.0])),
            Updf::Mv(mv.clone()),
            Updf::MvSamples(WeightedSamplesNd::new(
                vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                vec![1.0, 1.0, 2.0],
                2,
            )),
        ];
        for u in &updfs {
            let v = roundtrip_value(&Value::from(u.clone()));
            assert_eq!(v.as_updf().unwrap().dim(), u.dim());
        }
    }

    #[test]
    fn tuple_roundtrip_preserves_metadata() {
        let s = Schema::builder()
            .field("tag", DataType::Int)
            .field("loc", DataType::UncertainVec(2))
            .build();
        let base = Tuple::new(
            s.clone(),
            vec![
                Value::Int(7),
                Value::from(Updf::Mv(MvGaussian::isotropic(vec![0.0, 1.0], 2.0))),
            ],
            123,
        );
        let derived = Tuple::derived(
            s,
            base.values().to_vec(),
            456,
            0.25,
            base.lineage.union(&Lineage::base(u64::MAX)),
        );
        let mut bytes = Vec::new();
        encode_tuple(&mut bytes, &derived);
        let mut r = Reader::new(&bytes);
        let back = decode_tuple(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.ts, 456);
        assert_eq!(back.existence, 0.25);
        assert_eq!(back.lineage, derived.lineage);
        assert_eq!(back.schema().fields(), derived.schema().fields());
        let mut again = Vec::new();
        encode_tuple(&mut again, &back);
        assert_eq!(bytes, again);
    }

    #[test]
    fn shared_schema_batches_stay_shared() {
        let s = Schema::builder().field("v", DataType::Int).build();
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| Tuple::new(s.clone(), vec![Value::Int(i)], i as u64))
            .collect();
        let mut bytes = Vec::new();
        encode_tuples(&mut bytes, &tuples);
        assert_eq!(bytes[0], BATCH_SHARED_SCHEMA);
        let mut r = Reader::new(&bytes);
        let back = decode_tuples(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 5);
        let batch = Batch::from(back);
        assert!(batch.shared_schema().is_some(), "one Arc after decode");
    }

    #[test]
    fn mixed_schema_batches_roundtrip() {
        let s1 = Schema::builder().field("a", DataType::Int).build();
        let s2 = Schema::builder().field("b", DataType::Float).build();
        let tuples = vec![
            Tuple::new(s1, vec![Value::Int(1)], 0),
            Tuple::new(s2, vec![Value::Float(2.0)], 1),
        ];
        let mut bytes = Vec::new();
        encode_tuples(&mut bytes, &tuples);
        assert_eq!(bytes[0], BATCH_MIXED);
        let mut r = Reader::new(&bytes);
        let back = decode_tuples(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back[1].float("b").unwrap(), 2.0);
    }

    #[test]
    fn shared_schema_frames_decode_columnar_and_reencode_byte_identically() {
        let s = Schema::builder()
            .field("tag", DataType::Int)
            .field("zone", DataType::Str)
            .field("x", DataType::Uncertain)
            .field("mixed", DataType::Uncertain)
            .build();
        let tuples: Vec<Tuple> = (0..9)
            .map(|i| {
                // `mixed` alternates payload shapes, forcing that column
                // into the row fallback while the others stay typed.
                let mixed = if i % 2 == 0 {
                    Value::from(Updf::Parametric(Dist::gaussian(i as f64, 1.0)))
                } else {
                    Value::from(Updf::Samples(WeightedSamples::new(
                        vec![i as f64, i as f64 + 1.0],
                        vec![1.0, 3.0],
                    )))
                };
                Tuple::derived(
                    s.clone(),
                    vec![
                        Value::Int(i),
                        Value::Str(format!("z{}", i % 3)),
                        Value::from(Updf::Parametric(Dist::gaussian(0.5 * i as f64, 2.0))),
                        mixed,
                    ],
                    i as u64 * 10,
                    1.0 - 0.05 * (i % 4) as f64,
                    Lineage::base(i as u64),
                )
            })
            .collect();
        let mut bytes = Vec::new();
        encode_tuples(&mut bytes, &tuples);
        assert_eq!(bytes[0], BATCH_SHARED_SCHEMA);

        let mut r = Reader::new(&bytes);
        let batch = decode_batch(&mut r).unwrap();
        r.finish().unwrap();
        assert!(batch.is_columnar(), "shared-schema frame decodes in place");
        let cols = batch.columns().unwrap();
        assert!(cols.col(0).as_int().is_some());
        assert!(cols.col(1).as_str_dict().is_some());
        assert!(
            cols.col(2).as_gaussian().is_some(),
            "parametric gaussians land in the typed column"
        );
        assert!(
            cols.col(3).as_rows().is_some(),
            "heterogeneous payloads fall back to rows"
        );

        // Re-encoding straight from columns reproduces the frame.
        let mut again = Vec::new();
        encode_batch(&mut again, &batch);
        assert_eq!(bytes, again, "columnar encode must be byte-identical");

        // And the hydrated rows match the row decoder exactly.
        let rows = decode_tuples(&mut Reader::new(&bytes)).unwrap();
        let hydrated = batch.into_vec();
        assert_eq!(format!("{hydrated:?}"), format!("{rows:?}"));
    }

    #[test]
    fn columnar_decode_validates_like_the_row_decoder() {
        let s = Schema::builder().field("x", DataType::Uncertain).build();
        let t = Tuple::new(
            s,
            vec![Value::from(Updf::Parametric(Dist::gaussian(1.0, 2.0)))],
            5,
        );
        let mut bytes = Vec::new();
        encode_tuples(&mut bytes, std::slice::from_ref(&t));
        // Corrupt the sd bits (the trailing 8 bytes before ts/existence/
        // lineage = last 8+8+4+8 = 28 bytes; sd sits just before them).
        let sd_at = bytes.len() - 28 - 8;
        bytes[sd_at..sd_at + 8].copy_from_slice(&(-1.0f64).to_bits().to_be_bytes());
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_batch(&mut r),
            Err(WireError::InvalidPayload(_))
        ));
        // A lying row count fails on the missing rows without first
        // reserving columns for it: n = u32::MAX, one row present.
        let mut lying = vec![BATCH_SHARED_SCHEMA];
        encode_schema(&mut lying, t.schema());
        lying.extend_from_slice(&u32::MAX.to_be_bytes());
        encode_tuple_body(&mut lying, &t);
        assert!(matches!(
            decode_batch(&mut Reader::new(&lying)),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn typed_errors_not_panics() {
        // Truncated payload.
        let mut bytes = Vec::new();
        encode_value(&mut bytes, &Value::Str("hello".into()));
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(
            decode_value(&mut r),
            Err(WireError::Truncated { .. })
        ));
        // Unknown tag.
        let mut r = Reader::new(&[0xEE]);
        assert!(matches!(
            decode_value(&mut r),
            Err(WireError::UnknownTag { what: "Value", .. })
        ));
        // Invalid gaussian (sd <= 0).
        let mut bad = vec![VALUE_UNCERTAIN, UPDF_PARAMETRIC, DIST_GAUSSIAN];
        bad.extend_from_slice(&1.0f64.to_bits().to_be_bytes());
        bad.extend_from_slice(&(-1.0f64).to_bits().to_be_bytes());
        let mut r = Reader::new(&bad);
        assert!(matches!(
            decode_value(&mut r),
            Err(WireError::InvalidPayload(_))
        ));
        // Lying sample count must not allocate: n = u32::MAX.
        let mut lying = vec![UPDF_SAMPLES];
        lying.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = Reader::new(&lying);
        assert!(matches!(
            decode_updf(&mut r),
            Err(WireError::Truncated { .. })
        ));
        // Unsorted lineage.
        let s = Schema::builder().field("v", DataType::Int).build();
        let t = Tuple::new(s, vec![Value::Int(1)], 9);
        let mut bytes = Vec::new();
        encode_tuple(&mut bytes, &t);
        // Lineage is the trailing [count=1, id]; duplicate the id with a
        // smaller one by rewriting count=2 is fiddly — instead corrupt
        // existence (trailing 12 bytes are count+id; existence is the 8
        // bytes before ts... simpler: craft body directly).
        let mut crafted = Vec::new();
        encode_schema(&mut crafted, t.schema());
        encode_value(&mut crafted, &Value::Int(1));
        crafted.extend_from_slice(&9u64.to_be_bytes());
        crafted.extend_from_slice(&1.0f64.to_bits().to_be_bytes());
        crafted.extend_from_slice(&2u32.to_be_bytes());
        crafted.extend_from_slice(&5u64.to_be_bytes());
        crafted.extend_from_slice(&5u64.to_be_bytes()); // not strictly increasing
        let mut r = Reader::new(&crafted);
        assert!(matches!(
            decode_tuple(&mut r),
            Err(WireError::InvalidPayload(_))
        ));
    }

    #[test]
    fn frame_roundtrip_and_header_validation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x42, b"payload").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(payload, b"payload");

        // Clean EOF at a frame boundary.
        assert!(matches!(
            read_frame(&mut (&[][..])),
            Err(WireError::Disconnected)
        ));
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::BadMagic(_))
        ));
        // Future version.
        let mut newer = buf.clone();
        newer[2] = 9;
        assert!(matches!(
            read_frame(&mut newer.as_slice()),
            Err(WireError::UnsupportedVersion(9))
        ));
        // Oversized length field.
        let mut huge = buf.clone();
        huge[4..8].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(WireError::FrameTooLarge(_))
        ));
        // Mid-frame EOF.
        assert!(matches!(
            read_frame(&mut &buf[..buf.len() - 2]),
            Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
        ));
    }

    /// A sink that counts `write`/`write_vectored` calls and accepts at
    /// most `max_per_call` bytes per call.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        max_per_call: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let mut budget = self.max_per_call;
            for b in bufs {
                let n = b.len().min(budget);
                self.bytes.extend_from_slice(&b[..n]);
                budget -= n;
            }
            Ok(self.max_per_call - budget)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_write_call() {
        let payload = vec![0xA5u8; 4096];
        let mut expected = Vec::new();
        expected.extend_from_slice(&MAGIC);
        expected.extend_from_slice(&[WIRE_VERSION, 0x42]);
        expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        expected.extend_from_slice(&payload);

        let writer = |max_per_call| CountingWriter {
            bytes: Vec::new(),
            writes: 0,
            max_per_call,
        };

        let mut w = writer(usize::MAX);
        write_frame(&mut w, 0x42, &payload).unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave in one write");
        assert_eq!(w.bytes, expected);

        // An empty payload is still one write of the bare header.
        let mut w = writer(usize::MAX);
        write_frame(&mut w, 0x42, &[]).unwrap();
        assert_eq!((w.writes, w.bytes.len()), (1, FRAME_HEADER_LEN));

        // Short writes resume mid-header and mid-payload without loss.
        let mut w = writer(5);
        write_frame(&mut w, 0x42, &payload).unwrap();
        assert_eq!(w.bytes, expected);
        assert_eq!(w.writes, expected.len().div_ceil(5));
    }

    #[test]
    fn deep_truncation_nesting_rejected() {
        let bytes = vec![DIST_TRUNCATED; 40];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_dist(&mut r),
            Err(WireError::InvalidPayload(_))
        ));
    }
}
