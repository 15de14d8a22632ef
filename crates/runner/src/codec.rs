//! Exact serialization of point outcomes.
//!
//! Cached and worker-transported outcomes must reproduce the in-process
//! result **bit for bit** — the byte-identical-reports guarantee rests
//! on it — so every `f64` is encoded as its IEEE-754 bit pattern (a JSON
//! integer), never as a decimal rendering. The encoding is single-line
//! JSON: one outcome is one line of the worker stdout protocol and the
//! `payload` member of a cache entry. A sweep outcome carries each flow
//! once, as `"flows":[[size,slowdown bits],…]`; the report cuts them
//! into size buckets and classes, so no bucket layout is stored here.
//!
//! Decoding drives `dcn_scenarios::json::Parser`, the workspace's one
//! JSON reader, straight into the outcome's fields: members are read in
//! the order [`encode`] writes them, and anything else — a member missing,
//! unknown, repeated or out of order, bytes after the closing `}` — is
//! refused. A refusal is a cache miss, or the in-process fallback for a
//! worker line; it never yields a different outcome.

use dcn_scenarios::json::Parser;
use dcn_scenarios::{Algo, ParamSpec, PointOutcome};
use dcn_telemetry::{jstr, ChannelTrace, Sample, TraceEntry};

/// The transportable point result, under its original path (it lives
/// with the work-item model in `dcn-scenarios` now).
pub use dcn_scenarios::Outcome;

fn push_bits_vec(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_bits().to_string());
    }
    out.push(']');
}

/// Encode an outcome as one line of compact JSON (no interior newlines).
pub fn encode(outcome: &Outcome) -> String {
    let mut out = String::with_capacity(1024);
    match outcome {
        Outcome::Sweep(o) => {
            out.push_str(&format!(
                "{{\"kind\":\"sweep\",\"algo\":{},\"param\":{},\"load\":{},\"seed\":{},",
                jstr(&o.algo.key()),
                jstr(&o.param.label()),
                o.load.to_bits(),
                o.seed
            ));
            out.push_str("\"flows\":[");
            for (i, (size, s)) in o.flows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&size.to_string());
                out.push(',');
                out.push_str(&s.to_bits().to_string());
                out.push(']');
            }
            out.push_str("],\"buffer\":");
            push_bits_vec(&mut out, &o.buffer);
            out.push_str(&format!(
                ",\"completed\":{},\"offered\":{},\"drops\":{}}}",
                o.completed, o.offered, o.drops
            ));
        }
        Outcome::Trace(e) => {
            out.push_str(&format!(
                "{{\"kind\":\"trace\",\"label\":{},\"stats\":[",
                jstr(&e.label)
            ));
            for (i, (k, v)) in e.stats.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", jstr(k), v.to_bits()));
            }
            out.push_str("],\"channels\":[");
            for (i, c) in e.channels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"unit\":{},\"x_unit\":{},\"total_samples\":{},\
                     \"evicted\":{},\"samples\":[",
                    jstr(&c.name),
                    jstr(&c.unit),
                    jstr(&c.x_unit),
                    c.total_samples,
                    c.evicted
                ));
                for (j, s) in c.samples.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", s.x.to_bits(), s.y.to_bits()));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
    }
    debug_assert!(!out.contains('\n'), "outcome encoding must be one line");
    out
}

// ---- decoding ----

/// Read one outcome at `p`'s position: the members in the order
/// [`encode`] writes them, each straight into its field. A member that is
/// missing, unknown, repeated or out of place is an `Err`.
pub(crate) fn read(p: &mut Parser) -> Result<Outcome, String> {
    p.open_obj()?;
    let outcome = match p.field("kind", Parser::str)?.as_str() {
        "sweep" => Outcome::Sweep(Box::new(read_sweep(p)?)),
        "trace" => Outcome::Trace(Box::new(read_trace(p)?)),
        other => return Err(format!("unknown outcome kind {other:?}")),
    };
    p.close_obj()?;
    Ok(outcome)
}

/// Decode an outcome from its textual encoding; nothing but whitespace
/// may follow it.
pub fn decode_str(s: &str) -> Result<Outcome, String> {
    let mut p = Parser::new(s.as_bytes());
    let outcome = read(&mut p)?;
    p.finish()?;
    Ok(outcome)
}

// A struct expression evaluates its fields in the order written, so the
// two readers below pull the members in `encode`'s order.

fn read_sweep(p: &mut Parser) -> Result<PointOutcome, String> {
    Ok(PointOutcome {
        algo: Algo::parse(&p.field("algo", Parser::str)?)?,
        param: ParamSpec::parse(&p.field("param", Parser::str)?)?,
        load: p.field("load", bits)?,
        seed: p.field("seed", Parser::u64)?,
        flows: p.field("flows", |p| list(p, |p| pair(p, Parser::u64, sample)))?,
        buffer: p.field("buffer", |p| list(p, sample))?,
        completed: p.field("completed", Parser::usize)?,
        offered: p.field("offered", Parser::usize)?,
        drops: p.field("drops", Parser::u64)?,
    })
}

fn read_trace(p: &mut Parser) -> Result<TraceEntry, String> {
    Ok(TraceEntry {
        label: p.field("label", Parser::str)?,
        stats: p.field("stats", |p| list(p, |p| pair(p, Parser::str, bits)))?,
        channels: {
            p.key("channels")?;
            list(p, read_channel)?
        },
    })
}

fn read_channel(p: &mut Parser) -> Result<ChannelTrace, String> {
    p.open_obj()?;
    let channel = ChannelTrace {
        name: p.field("name", Parser::str)?,
        unit: p.field("unit", Parser::str)?,
        x_unit: p.field("x_unit", Parser::str)?,
        total_samples: p.field("total_samples", Parser::u64)?,
        evicted: p.field("evicted", Parser::u64)?,
        samples: p.field("samples", |p| {
            list(p, |p| pair(p, bits, bits).map(|(x, y)| Sample { x, y }))
        })?,
    };
    p.close_obj()?;
    Ok(channel)
}

/// An `f64` from its bit pattern.
fn bits(p: &mut Parser) -> Result<f64, String> {
    p.u64().map(f64::from_bits)
}

/// A sweep sample (a flow's slowdown, a buffer reading), NaN refused: the
/// engine never emits one and the report's sort cannot rank one, so a NaN
/// read from outside (a cache entry, a worker line) is a miss or the
/// in-process fallback instead of a panic in the reduction. `±inf` and
/// `-0.0` pass.
fn sample(p: &mut Parser) -> Result<f64, String> {
    match bits(p)? {
        x if x.is_nan() => Err("a NaN sample".into()),
        x => Ok(x),
    }
}

/// An array, each item read by `item`.
fn list<'a, T>(
    p: &mut Parser<'a>,
    mut item: impl FnMut(&mut Parser<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    p.open_arr()?;
    let mut out = Vec::new();
    while p.item()? {
        out.push(item(p)?);
    }
    Ok(out)
}

/// A two-item array read as `(first, second)`.
fn pair<'a, A, B>(
    p: &mut Parser<'a>,
    first: impl FnOnce(&mut Parser<'a>) -> Result<A, String>,
    second: impl FnOnce(&mut Parser<'a>) -> Result<B, String>,
) -> Result<(A, B), String> {
    p.open_arr()?;
    let both = (first(p)?, second(p)?);
    p.close_arr()?;
    Ok(both)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::{
        builtin, compute, run_sweep_point_observed, sweep_points, work_items, ParamSpec, SweepPoint,
    };

    #[test]
    fn sweep_outcome_round_trips_bit_for_bit() {
        let spec = builtin("fig6-small").unwrap();
        let p = sweep_points(&spec)[0];
        let (out, _) = run_sweep_point_observed(&spec, &p);
        let encoded = encode(&Outcome::Sweep(Box::new(out.clone())));
        assert!(!encoded.contains('\n'));
        let Outcome::Sweep(back) = decode_str(&encoded).unwrap() else {
            panic!("kind flipped");
        };
        assert_eq!(*back, out);
        // PartialEq on f64 treats -0.0 == 0.0 and misses NaN; pin the
        // actual bits too.
        for (a, b) in out.flows.iter().zip(back.flows.iter()) {
            assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
        }
    }

    #[test]
    fn trace_outcome_round_trips_bit_for_bit() {
        let spec = builtin("fig2").unwrap();
        let (Outcome::Trace(entry), _) = compute(&spec, &work_items(&spec)[..1]).remove(0) else {
            panic!("fig2 is a lineup entry");
        };
        let encoded = encode(&Outcome::Trace(entry.clone()));
        let Outcome::Trace(back) = decode_str(&encoded).unwrap() else {
            panic!("kind flipped");
        };
        assert_eq!(back, entry);
    }

    #[test]
    fn non_finite_and_signed_zero_floats_survive() {
        let point = SweepPoint {
            index: 0,
            algo: dcn_scenarios::Algo::PowerTcp,
            param: ParamSpec::default(),
            load: 0.6,
            seed: 42,
        };
        let (mut out, _) = run_sweep_point_observed(&builtin("fig6-small").unwrap(), &point);
        out.buffer = vec![f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let encoded = encode(&Outcome::Sweep(Box::new(out.clone())));
        let Outcome::Sweep(back) = decode_str(&encoded).unwrap() else {
            panic!()
        };
        let bits: Vec<u64> = back.buffer.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = out.buffer.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
        // A NaN sample — any vector, any NaN payload — is refused.
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
            for slot in 0..2 {
                let mut bad = out.clone();
                match slot {
                    0 => bad.flows[2].1 = nan,
                    _ => bad.buffer.push(nan),
                }
                let err = decode_str(&encode(&Outcome::Sweep(Box::new(bad)))).unwrap_err();
                assert!(err.contains("out of range"), "slot {slot}: {err}");
            }
        }
    }

    #[test]
    fn corrupt_encodings_are_rejected() {
        assert!(decode_str("{}").is_err());
        assert!(decode_str("{\"kind\":\"sweep\"}").is_err());
        assert!(decode_str("{\"kind\":\"nope\"}").is_err());
        assert!(decode_str("not json").is_err());
        assert!(decode_str(
            "{\"kind\":\"trace\",\"label\":\"x\",\"stats\":[[1,2]],\"channels\":[]}"
        )
        .is_err());
    }
}
