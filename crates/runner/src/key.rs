//! Content-addressed cache keys for point outcomes.
//!
//! A key is derived from a *canonical byte encoding* of everything that
//! determines a point result: the spec's result-affecting fragment
//! ([`ScenarioSpec::cache_fragment`] — topology, workload, horizon,
//! trace or analytic config; never the name, description, or sweep
//! axes), the point coordinates (`algo`, `param`, `load`, `seed` — or
//! lineup entry for traces and analytic grids), a behavioral version
//! salt ([`dcn_sim::ENGINE_VERSION`] for packet-simulated kinds,
//! [`dcn_flow::FLOW_ENGINE_VERSION`] for flow-engine sweeps,
//! [`fluid_model::MODEL_VERSION`] for analytic ones — each engine's
//! cache survives hot-path work in the others), and the key-format
//! version. The canonical string is hashed with a small vendored FNV-1a
//! (64-bit) to name the cache file; the full canonical string is stored
//! *inside* the entry and compared byte-for-byte on every load, so a
//! hash collision (or a stale file from an older format) is detected and
//! treated as a miss, never served.

use dcn_scenarios::{EngineKind, ScenarioKind, ScenarioSpec, SweepPoint, WorkItem};

/// Version of the canonical key encoding and of the payload it addresses.
/// Bump when the encoding below or the codec's outcome layout changes
/// shape, so old entries miss instead of mis-validating. (3: a sweep
/// payload is one `flows` list of `[size, slowdown]` pairs.)
pub const KEY_FORMAT: u32 = 3;

/// A derived cache key: the content hash (file name) plus the canonical
/// encoding it was derived from (stored in the entry for validation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a 64-bit hash of `canon`.
    pub hash: u64,
    /// The canonical byte encoding of the point's identity.
    pub canon: String,
}

impl CacheKey {
    fn from_canon(canon: String) -> CacheKey {
        CacheKey {
            hash: fnv1a64(canon.as_bytes()),
            canon,
        }
    }

    /// The cache file name this key addresses (`<hash>.json`).
    pub fn file_name(&self) -> String {
        format!("{:016x}.json", self.hash)
    }
}

/// Vendored FNV-1a, 64-bit: the canonical offset-basis/prime constants,
/// one multiply and xor per byte. Collisions are tolerable because every
/// hit is validated against the stored canonical encoding.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shared key preamble: format + behavioral-version salt + spec
/// fragment. Analytic specs never touch the simulator, so their salt is
/// the fluid-model version; flow-engine sweeps never touch the
/// packet simulator either, so they carry the flow-engine version —
/// bumping one engine leaves the other kinds' caches warm.
fn preamble(spec: &ScenarioSpec) -> String {
    let packet = || format!("engine-version={}", dcn_sim::ENGINE_VERSION);
    let salt = match &spec.kind {
        ScenarioKind::Analytic(_) => format!("fluid-model-version={}", fluid_model::MODEL_VERSION),
        ScenarioKind::Timeseries(_) => packet(),
        // Exhaustive on purpose: a new engine does not compile until it
        // names its own behavioral version here.
        ScenarioKind::Sweep(sweep) => match sweep.engine {
            EngineKind::Flow => format!("flow-engine-version={}", dcn_flow::FLOW_ENGINE_VERSION),
            EngineKind::Packet => packet(),
        },
    };
    format!(
        "key-format={}\n{}\n--- spec ---\n{}",
        KEY_FORMAT,
        salt,
        spec.cache_fragment()
    )
}

/// A spec's keys: its preamble (format line, engine salt, spec fragment)
/// derived once, then one canon per work item. A run derives it once
/// for its whole expansion ([`crate::CachingSource`]); [`item_key`] and
/// [`point_key`] derive it per call.
#[derive(Clone, Debug)]
pub struct SpecKeys<'a> {
    spec: &'a ScenarioSpec,
    preamble: String,
}

impl<'a> SpecKeys<'a> {
    /// Derive `spec`'s preamble.
    pub fn new(spec: &'a ScenarioSpec) -> SpecKeys<'a> {
        let preamble = preamble(spec);
        SpecKeys { spec, preamble }
    }

    /// The spec these keys address.
    pub fn spec(&self) -> &'a ScenarioSpec {
        self.spec
    }

    /// Key of one work item: a sweep point or a lineup entry.
    pub fn item(&self, item: &WorkItem) -> CacheKey {
        match item {
            WorkItem::Point(p) => self.point(p),
            WorkItem::Trace(e) => self.entry("trace", &e.label, &e.algo.key(), e.prebuffer.as_ps()),
            // An analytic entry runs no law. Key format 2 was laid down
            // when every analytic spec still carried an unused seed-42
            // PowerTCP lineup, and these are the bytes it left.
            WorkItem::Analytic(e) => self.entry("analytic", &e.label, "powertcp", 0),
        }
    }

    fn point(&self, point: &SweepPoint) -> CacheKey {
        CacheKey::from_canon(format!(
            "{}--- point ---\nkind=sweep\nalgo={}\nparam={}\nload-bits={:016x}\nseed={}\n",
            self.preamble,
            point.algo.key(),
            point.param.label(),
            point.load.to_bits(),
            point.seed
        ))
    }

    /// A lineup entry's key. No entry has a seed: key format 2 was laid
    /// down when every lineup still carried seed 42, and it left the line.
    fn entry(&self, kind: &str, label: &str, algo: &str, prebuffer_ps: u64) -> CacheKey {
        CacheKey::from_canon(format!(
            "{}--- point ---\nkind={kind}\nlabel={label}\nalgo={algo}\nprebuffer-ps={prebuffer_ps}\nseed=42\n",
            self.preamble,
        ))
    }
}

/// Key of one work item: a sweep point's, or a lineup entry's (whose
/// label tells the expanded entries apart; an analytic grid itself lives
/// in the spec fragment).
pub fn item_key(spec: &ScenarioSpec, item: &WorkItem) -> CacheKey {
    SpecKeys::new(spec).item(item)
}

/// Key of one FCT sweep point. The load is encoded as its exact IEEE-754
/// bit pattern — two loads that differ in the last ulp are different
/// points.
pub fn point_key(spec: &ScenarioSpec, point: &SweepPoint) -> CacheKey {
    SpecKeys::new(spec).point(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::{builtin, sweep_points, work_items, Algo};

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn keys_separate_points_and_ignore_identity_fields() {
        let spec = builtin("fig6").unwrap();
        let pts = sweep_points(&spec);
        let keys: Vec<CacheKey> = pts.iter().map(|p| point_key(&spec, p)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.canon, b.canon);
                assert_ne!(a.hash, b.hash);
            }
        }
        // Renaming the scenario or trimming the sweep grid does not move
        // point keys: the fragment excludes identity and axes.
        let mut renamed = spec.clone();
        renamed.name = "other-name".into();
        renamed.description = "something else".into();
        let ScenarioKind::Sweep(body) = &mut renamed.kind else {
            unreachable!("a sweep")
        };
        body.sweep.loads = vec![0.2];
        assert_eq!(point_key(&renamed, &pts[0]), keys[0]);
    }

    #[test]
    fn keys_depend_on_physics_and_salt_inputs() {
        let spec = builtin("fig6").unwrap();
        let p = sweep_points(&spec)[0];
        let base = point_key(&spec, &p);
        let hotter = spec.clone().horizon_ms(5.0);
        assert_ne!(point_key(&hotter, &p), base);
        let mut other_seed = p;
        other_seed.seed ^= 1;
        assert_ne!(point_key(&spec, &other_seed), base);
        assert!(base.canon.contains("engine-version="));
        assert_eq!(base.file_name(), format!("{:016x}.json", base.hash));
    }

    #[test]
    fn param_axis_separates_sweep_point_keys() {
        let spec = builtin("gamma-sweep").unwrap();
        let pts = sweep_points(&spec);
        assert_eq!(pts.len(), 2);
        let a = point_key(&spec, &pts[0]);
        let b = point_key(&spec, &pts[1]);
        assert_ne!(a.canon, b.canon, "gamma grid must separate keys");
        assert!(a.canon.contains("param=gamma=0.5"), "{}", a.canon);
        // Default-param points carry an empty param line (stable canon).
        let plain = builtin("fig6-small").unwrap();
        let k = point_key(&plain, &sweep_points(&plain)[0]);
        assert!(k.canon.contains("param=\n"), "{}", k.canon);
    }

    #[test]
    fn flow_engine_sweeps_carry_their_own_version_salt() {
        let packet = builtin("fig7").unwrap();
        let flow = builtin("fig7-flow").unwrap();
        let pk = point_key(&packet, &sweep_points(&packet)[0]);
        let fk = point_key(&flow, &sweep_points(&flow)[0]);
        // Packet keys are salted by the simulator version only; flow keys
        // by the flow-engine version only — so bumping one engine leaves
        // the other's cache warm.
        assert!(pk.canon.contains("engine-version="), "{}", pk.canon);
        assert!(!pk.canon.contains("flow-engine-version="), "{}", pk.canon);
        assert!(fk.canon.contains("flow-engine-version="), "{}", fk.canon);
        assert!(!fk.canon.contains("\nengine-version="), "{}", fk.canon);
        // Switching a spec's engine moves every point key: the engine
        // selects physics, so it must never alias across engines.
        let mut as_packet = flow.clone();
        let ScenarioKind::Sweep(body) = &mut as_packet.kind else {
            unreachable!("fig7-flow is a sweep")
        };
        body.engine = EngineKind::Packet;
        assert_ne!(point_key(&as_packet, &sweep_points(&flow)[0]), fk);
    }

    #[test]
    fn trace_entry_keys_separate_lineup_entries() {
        let spec = builtin("fig8").unwrap();
        let entries = work_items(&spec);
        assert!(entries.len() >= 3);
        let keys: Vec<CacheKey> = entries.iter().map(|e| item_key(&spec, e)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.canon, b.canon, "reTCP prebuffers must separate");
            }
        }
        // Same algo at different prebuffers differs only by the point
        // section.
        let retcp: Vec<&WorkItem> = entries
            .iter()
            .filter(|e| matches!(e, WorkItem::Trace(t) if t.algo == Algo::ReTcp))
            .collect();
        assert_eq!(retcp.len(), 2);
        assert_ne!(
            item_key(&spec, retcp[0]).hash,
            item_key(&spec, retcp[1]).hash
        );
    }
}
