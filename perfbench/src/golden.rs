//! The committed golden suite (`tests/golden/suite.json`) as an
//! expected value for each measured scenario.

use std::collections::HashMap;
use swan_core::Scale;
use swan_uarch::SimResult;

/// Where the golden suite lives, relative to the repository root.
pub const PATH: &str = "tests/golden/suite.json";

/// The counts a golden entry pins for one scenario.
type Counts = [u64; 10];

const FIELDS: [&str; 10] = [
    "instrs", "cycles", "fe_stall", "be_stall", "l1d.acc", "l1d.miss", "l2.acc", "l2.miss",
    "llc.acc", "llc.miss",
];

/// The golden suite: the seed it was collected at and each scenario's
/// pinned counts (plus the DRAM count, kept apart so [`Counts`] stays
/// one fixed-size array per cache level pair).
#[derive(Clone, Debug, Default)]
pub struct Golden {
    /// Campaign seed of the collection.
    pub seed: u64,
    /// Input scale of the collection.
    pub scale: f64,
    entries: HashMap<String, (Counts, u64)>,
}

/// The counts of a simulation result, in golden field order.
fn counts(sim: &SimResult) -> (Counts, u64) {
    (
        [
            sim.instrs,
            sim.cycles,
            sim.fe_stall_cycles,
            sim.be_stall_cycles,
            sim.l1d.accesses,
            sim.l1d.misses,
            sim.l2.accesses,
            sim.l2.misses,
            sim.llc.accesses,
            sim.llc.misses,
        ],
        sim.dram_accesses,
    )
}

fn value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim())
}

fn number(line: &str, key: &str) -> Result<u64, String> {
    value(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("golden line lacks integer `{key}`: {line}"))
}

fn pair(line: &str, key: &str) -> Result<[u64; 2], String> {
    let bad = || format!("golden line lacks pair `{key}`: {line}");
    let v = value(line, key).ok_or_else(bad)?;
    let (a, b) = v
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split_once(',')
        .ok_or_else(bad)?;
    Ok([
        a.trim().parse().map_err(|_| bad())?,
        b.trim().parse().map_err(|_| bad())?,
    ])
}

impl Golden {
    /// Parse the canonical golden JSON (one entry per line).
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        for line in text.lines() {
            if let Some(id) = value(line, "scenario") {
                let [l1a, l1m] = pair(line, "l1d")?;
                let [l2a, l2m] = pair(line, "l2")?;
                let [lla, llm] = pair(line, "llc")?;
                let c = [
                    number(line, "instrs")?,
                    number(line, "cycles")?,
                    number(line, "fe_stall")?,
                    number(line, "be_stall")?,
                    l1a,
                    l1m,
                    l2a,
                    l2m,
                    lla,
                    llm,
                ];
                let id = id.trim_matches('"').to_string();
                g.entries.insert(id, (c, number(line, "dram")?));
            } else if let Some(v) = value(line, "seed") {
                g.seed = v.parse().map_err(|_| format!("bad golden seed `{v}`"))?;
            } else if let Some(v) = value(line, "scale") {
                g.scale = v.parse().map_err(|_| format!("bad golden scale `{v}`"))?;
            }
        }
        if g.entries.is_empty() {
            return Err("golden suite holds no entries".into());
        }
        Ok(g)
    }

    /// Read the golden suite from the repository root; `None` unless it
    /// was collected at this seed and scale.
    pub fn load_for(seed: u64, scale: Scale) -> Result<Option<Golden>, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("cannot read {PATH}: {e}"))?;
        let g = Golden::parse(&text)?;
        Ok((g.seed == seed && g.scale == scale.0).then_some(g))
    }
    /// Compare one measured scenario against its pinned counts.
    pub fn check(&self, scenario_id: &str, sim: &SimResult) -> Result<(), String> {
        let (want, want_dram) = self
            .entries
            .get(scenario_id)
            .ok_or_else(|| format!("{scenario_id}: not in the golden suite"))?;
        let (got, got_dram) = counts(sim);
        for ((name, w), g) in FIELDS.iter().zip(want).zip(got) {
            if *w != g {
                return Err(format!("{scenario_id}: {name} = {g}, golden {w}"));
            }
        }
        if *want_dram != got_dram {
            return Err(format!(
                "{scenario_id}: dram = {got_dram}, golden {want_dram}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "format": 2,
  "scale": 0.041666666666666664,
  "seed": 42,
  "scenarios": 1,
  "entries": [
    {"scenario": "LJ.k/Scalar/w128/prime", "instrs": 10, "trace_hash": "bbdf8b78b611f530", "fallback_refs": 0, "cycles": 20, "fe_stall": 1, "be_stall": 2, "l1d": [3, 4], "l2": [5, 6], "llc": [7, 8], "dram": 9}
  ]
}
"#;

    fn sim() -> SimResult {
        let mut s = swan_uarch::simulate(&Default::default(), &swan_uarch::CoreConfig::prime());
        s.instrs = 10;
        s.cycles = 20;
        s.fe_stall_cycles = 1;
        s.be_stall_cycles = 2;
        s.l1d.accesses = 3;
        s.l1d.misses = 4;
        s.l2.accesses = 5;
        s.l2.misses = 6;
        s.llc.accesses = 7;
        s.llc.misses = 8;
        s.dram_accesses = 9;
        s
    }

    #[test]
    fn parses_header_and_entries() {
        let g = Golden::parse(DOC).unwrap();
        assert_eq!((g.seed, g.entries.len()), (42, 1));
        assert_eq!(g.scale, 1.0 / 24.0);
        assert_eq!(g.check("LJ.k/Scalar/w128/prime", &sim()), Ok(()));
    }

    #[test]
    fn a_perturbed_expected_value_fails_the_check() {
        let perturbed = DOC.replace("\"cycles\": 20", "\"cycles\": 21");
        let g = Golden::parse(&perturbed).unwrap();
        let err = g.check("LJ.k/Scalar/w128/prime", &sim()).unwrap_err();
        assert!(err.contains("cycles = 20, golden 21"), "{err}");
        let g = Golden::parse(&DOC.replace("\"dram\": 9", "\"dram\": 0")).unwrap();
        assert!(g.check("LJ.k/Scalar/w128/prime", &sim()).is_err());
    }

    #[test]
    fn a_perturbed_measurement_fails_the_check() {
        let g = Golden::parse(DOC).unwrap();
        let mut s = sim();
        s.llc.misses += 1;
        assert!(g.check("LJ.k/Scalar/w128/prime", &s).is_err());
        assert!(g.check("LJ.k/Neon/w128/prime", &sim()).is_err());
    }

    #[test]
    fn the_committed_suite_parses() {
        let text = std::fs::read_to_string(format!("../{PATH}")).unwrap();
        let g = Golden::parse(&text).unwrap();
        assert_eq!((g.seed, g.entries.len()), (42, 485));
    }
}
