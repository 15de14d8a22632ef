//! The correctness pins of `expected.json`: at the default seed every
//! workload's report digest and event total are fixed. Simulated
//! statistics are deterministic, so a speed-only change must leave every
//! one identical.

use crate::workloads::Pin;
use dcn_scenarios::diff::{parse_json, Json};
use std::collections::BTreeMap;

/// The seed `expected.json` pins (also the default `--seed`).
pub const DEFAULT_SEED: u64 = 42;

const EXPECTED: &str = include_str!("../expected.json");

/// Member `key` of a JSON object (`None` for anything else).
pub fn member<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Parse an `expected.json` document into pins by workload name.
pub fn parse(text: &str) -> Result<BTreeMap<String, Pin>, String> {
    let doc = parse_json(text)?;
    if member(&doc, "seed") != Some(&Json::Int(DEFAULT_SEED as i128)) {
        return Err(format!("expected.json must pin seed {DEFAULT_SEED}"));
    }
    let Some(Json::Obj(workloads)) = member(&doc, "workloads") else {
        return Err("expected.json has no \"workloads\" object".into());
    };
    let mut pins = BTreeMap::new();
    for (name, w) in workloads {
        let digest = match member(w, "digest") {
            Some(Json::Str(hex)) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|_| format!("{name}: digest {hex:?} is not hex"))?,
            _ => return Err(format!("{name}: missing digest")),
        };
        let events = match member(w, "events") {
            Some(Json::Int(n)) => u64::try_from(*n).map_err(|_| format!("{name}: bad events"))?,
            _ => return Err(format!("{name}: missing events")),
        };
        pins.insert(name.clone(), Pin { digest, events });
    }
    Ok(pins)
}

/// The committed pins.
pub fn committed() -> Result<BTreeMap<String, Pin>, String> {
    parse(EXPECTED)
}

/// Render pins as an `expected.json` document.
pub fn render(pins: &[(String, Pin)]) -> String {
    let rows: Vec<String> = pins
        .iter()
        .map(|(name, p)| {
            format!(
                "    \"{name}\": {{\"digest\": \"{:#018x}\", \"events\": {}}}",
                p.digest, p.events
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn committed_pins_cover_every_workload_and_round_trip() {
        let pins = committed().expect("expected.json parses");
        for name in WORKLOADS {
            assert!(pins.contains_key(name), "no pin for {name}");
        }
        assert_eq!(pins.len(), WORKLOADS.len());
        let listed: Vec<(String, Pin)> = pins.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(parse(&render(&listed)).unwrap(), pins);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"seed\": 7, \"workloads\": {}}").is_err());
        assert!(parse(
            "{\"seed\": 42, \"workloads\": {\"w\": {\"digest\": \"zz\", \"events\": 1}}}"
        )
        .is_err());
        assert!(parse("{\"seed\": 42, \"workloads\": {\"w\": {\"digest\": \"0x1\"}}}").is_err());
    }
}
