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

fn obj(j: &Json) -> Result<&[(String, Json)], String> {
    match j {
        Json::Obj(members) => Ok(members),
        _ => Err("expected an object".into()),
    }
}

fn get<'a>(members: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    members
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn uint(j: &Json) -> Result<u64, String> {
    match j {
        Json::Int(i) if (0..=u64::MAX as i128).contains(i) => Ok(*i as u64),
        _ => Err("expected a non-negative integer".into()),
    }
}

fn float_bits(j: &Json) -> Result<f64, String> {
    uint(j).map(f64::from_bits)
}

fn string(j: &Json) -> Result<String, String> {
    match j {
        Json::Str(s) => Ok(s.clone()),
        _ => Err("expected a string".into()),
    }
}

fn array(j: &Json) -> Result<&[Json], String> {
    match j {
        Json::Arr(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

fn float_vec(j: &Json) -> Result<Vec<f64>, String> {
    array(j)?.iter().map(float_bits).collect()
}

/// Decode an outcome from its parsed JSON encoding.
pub fn decode(j: &Json) -> Result<Outcome, String> {
    let m = obj(j)?;
    match string(get(m, "kind")?)?.as_str() {
        "sweep" => {
            let buckets = array(get(m, "buckets")?)?
                .iter()
                .map(float_vec)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Outcome::Sweep(Box::new(PointOutcome {
                algo: Algo::parse(&string(get(m, "algo")?)?)?,
                param: dcn_scenarios::ParamSpec::parse(&string(get(m, "param")?)?)?,
                load: float_bits(get(m, "load")?)?,
                seed: uint(get(m, "seed")?)?,
                buckets,
                short: float_vec(get(m, "short")?)?,
                medium: float_vec(get(m, "medium")?)?,
                long: float_vec(get(m, "long")?)?,
                all: float_vec(get(m, "all")?)?,
                buffer: float_vec(get(m, "buffer")?)?,
                completed: uint(get(m, "completed")?)? as usize,
                offered: uint(get(m, "offered")?)? as usize,
                drops: uint(get(m, "drops")?)?,
            })))
        }
        "trace" => {
            let stats = array(get(m, "stats")?)?
                .iter()
                .map(|s| {
                    let pair = array(s)?;
                    if pair.len() != 2 {
                        return Err("stat entries are [name, bits] pairs".to_string());
                    }
                    Ok((string(&pair[0])?, float_bits(&pair[1])?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let channels = array(get(m, "channels")?)?
                .iter()
                .map(|c| {
                    let cm = obj(c)?;
                    let samples = array(get(cm, "samples")?)?
                        .iter()
                        .map(|s| {
                            let pair = array(s)?;
                            if pair.len() != 2 {
                                return Err("samples are [x, y] bit pairs".to_string());
                            }
                            Ok(Sample {
                                x: float_bits(&pair[0])?,
                                y: float_bits(&pair[1])?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    Ok(ChannelTrace {
                        name: string(get(cm, "name")?)?,
                        unit: string(get(cm, "unit")?)?,
                        x_unit: string(get(cm, "x_unit")?)?,
                        total_samples: uint(get(cm, "total_samples")?)?,
                        evicted: uint(get(cm, "evicted")?)?,
                        samples,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Outcome::Trace(Box::new(TraceEntry {
                label: string(get(m, "label")?)?,
                stats,
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
    use dcn_scenarios::{builtin, run_point, run_trace_entry, sweep_points, trace_entries};

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
        let entry = run_trace_entry(&spec, e);
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
        out.buffer = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let encoded = encode(&Outcome::Sweep(Box::new(out.clone())));
        let Outcome::Sweep(back) = decode_str(&encoded).unwrap() else {
            panic!()
        };
        let bits: Vec<u64> = back.buffer.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = out.buffer.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want);
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
