//! Exact serialization of point outcomes.
//!
//! Cached and worker-transported outcomes must reproduce the in-process
//! result **bit for bit** — the byte-identical-reports guarantee rests
//! on it — so every `f64` is encoded as its IEEE-754 bit pattern (a JSON
//! integer), never as a decimal rendering. The encoding is single-line
//! JSON: one outcome is one line of the worker stdout protocol and the
//! `payload` member of a cache entry. Parsing reuses the strict JSON
//! parser of `dcn-scenarios::diff` (its `Int` arm keeps `u64` bit
//! patterns exact).

use dcn_scenarios::diff::{parse_json, Json};
use dcn_scenarios::{Algo, PointOutcome};
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
            out.push_str("\"buckets\":[");
            for (i, b) in o.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_bits_vec(&mut out, b);
            }
            out.push_str("],");
            for (name, xs) in [
                ("short", &o.short),
                ("medium", &o.medium),
                ("long", &o.long),
                ("all", &o.all),
                ("buffer", &o.buffer),
            ] {
                out.push_str(&format!("\"{name}\":"));
                push_bits_vec(&mut out, xs);
                out.push(',');
            }
            out.push_str(&format!(
                "\"completed\":{},\"offered\":{},\"drops\":{}}}",
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

fn float_bits(j: &Json) -> Option<f64> {
    j.as_u64().map(f64::from_bits)
}

/// A sweep sample vector, NaN refused: the engine never emits one and the
/// report's sort cannot rank one, so a NaN read from outside (a cache
/// entry, a worker line) is a miss or the in-process fallback instead of
/// a panic in the reduction. `±inf` and `-0.0` pass.
fn sample_vec(j: &Json) -> Option<Vec<f64>> {
    let sample = |x| float_bits(x).filter(|x| !x.is_nan());
    j.as_arr()?.iter().map(sample).collect()
}

/// A two-element array read as `(first, second)`.
fn pair<'a, A, B>(
    first: impl Fn(&'a Json) -> Option<A>,
    second: impl Fn(&'a Json) -> Option<B>,
) -> impl Fn(&'a Json) -> Option<(A, B)> {
    move |j| match j.as_arr()? {
        [a, b] => Some((first(a)?, second(b)?)),
        _ => None,
    }
}

/// Decode an outcome from its parsed JSON encoding.
pub fn decode(j: &Json) -> Result<Outcome, String> {
    let text = |j: &Json, key| j.field(key, Json::as_str).map(str::to_string);
    match j.field("kind", Json::as_str)? {
        "sweep" => Ok(Outcome::Sweep(Box::new(PointOutcome {
            algo: Algo::parse(j.field("algo", Json::as_str)?)?,
            param: dcn_scenarios::ParamSpec::parse(j.field("param", Json::as_str)?)?,
            load: j.field("load", float_bits)?,
            seed: j.field("seed", Json::as_u64)?,
            buckets: j.field("buckets", |b| b.as_arr()?.iter().map(sample_vec).collect())?,
            short: j.field("short", sample_vec)?,
            medium: j.field("medium", sample_vec)?,
            long: j.field("long", sample_vec)?,
            all: j.field("all", sample_vec)?,
            buffer: j.field("buffer", sample_vec)?,
            completed: j.field("completed", Json::as_usize)?,
            offered: j.field("offered", Json::as_usize)?,
            drops: j.field("drops", Json::as_u64)?,
        }))),
        "trace" => {
            let stat = pair(|k| k.as_str().map(str::to_string), float_bits);
            let sample = pair(float_bits, float_bits);
            let channels = j
                .field("channels", Json::as_arr)?
                .iter()
                .map(|c| {
                    Ok(ChannelTrace {
                        name: text(c, "name")?,
                        unit: text(c, "unit")?,
                        x_unit: text(c, "x_unit")?,
                        total_samples: c.field("total_samples", Json::as_u64)?,
                        evicted: c.field("evicted", Json::as_u64)?,
                        samples: c.field("samples", |s| {
                            let xy = s.as_arr()?.iter().map(&sample);
                            xy.map(|p| p.map(|(x, y)| Sample { x, y })).collect()
                        })?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Outcome::Trace(Box::new(TraceEntry {
                label: text(j, "label")?,
                stats: j.field("stats", |s| s.as_arr()?.iter().map(&stat).collect())?,
                channels,
            })))
        }
        other => Err(format!("unknown outcome kind {other:?}")),
    }
}

/// Decode an outcome from its textual encoding.
pub fn decode_str(s: &str) -> Result<Outcome, String> {
    decode(&parse_json(s)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::{
        builtin, run_point, run_trace_entry_observed, sweep_points, trace_entries,
    };

    #[test]
    fn sweep_outcome_round_trips_bit_for_bit() {
        let spec = builtin("fig6-small").unwrap();
        let p = sweep_points(&spec)[0];
        let out = run_point(&spec, p.algo, p.load, p.seed);
        let encoded = encode(&Outcome::Sweep(Box::new(out.clone())));
        assert!(!encoded.contains('\n'));
        let Outcome::Sweep(back) = decode_str(&encoded).unwrap() else {
            panic!("kind flipped");
        };
        assert_eq!(*back, out);
        // PartialEq on f64 treats -0.0 == 0.0 and misses NaN; pin the
        // actual bits too.
        for (a, b) in out.all.iter().zip(back.all.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn trace_outcome_round_trips_bit_for_bit() {
        let spec = builtin("fig2").unwrap();
        let e = &trace_entries(&spec)[0];
        let entry = run_trace_entry_observed(&spec, e).0;
        let encoded = encode(&Outcome::Trace(Box::new(entry.clone())));
        let Outcome::Trace(back) = decode_str(&encoded).unwrap() else {
            panic!("kind flipped");
        };
        assert_eq!(*back, entry);
    }

    #[test]
    fn non_finite_and_signed_zero_floats_survive() {
        let mut out = run_point(
            &builtin("fig6-small").unwrap(),
            dcn_scenarios::Algo::PowerTcp,
            0.6,
            42,
        );
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
            for slot in 0..6 {
                let mut bad = out.clone();
                match slot {
                    0 => bad.buckets[2].push(nan),
                    1 => bad.short.push(nan),
                    2 => bad.medium.push(nan),
                    3 => bad.long.push(nan),
                    4 => bad.all.push(nan),
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
