//! Scenario descriptors: the campaign's unit of planning.
//!
//! A [`Scenario`] names one point of the paper's measurement matrix —
//! (kernel, implementation, register width, core configuration, input
//! scale, seed) — as *data*. [`crate::campaign::plan`] expands a kernel
//! inventory into the canonical scenario list, the campaign executor
//! shards scenarios (grouped by shared instruction stream) across
//! workers, and the aggregation layer folds per-scenario measurements
//! back into the per-kernel shapes the report generators consume.
//! [`ScenarioFilter`] selects arbitrary subsets of a plan (the
//! `swan-report --only` syntax) without introducing a second
//! measurement path.

use crate::kernel::{Impl, Library, Scale};
use swan_simd::Width;
use swan_uarch::CoreId;

/// One planned measurement: a single (kernel, implementation, width,
/// core, scale, seed) point of the campaign matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Index of the kernel in the inventory the plan was built over.
    pub kernel: usize,
    /// `LIB.kernel` identifier of that kernel (denormalized so plans
    /// are meaningful without the inventory at hand).
    pub kernel_id: String,
    /// Implementation measured.
    pub imp: Impl,
    /// Vector register width the session runs at.
    pub width: Width,
    /// Core configuration, by stable registry id.
    pub core: CoreId,
    /// Input scale.
    pub scale: Scale,
    /// Input-generation seed.
    pub seed: u64,
    /// The `(implementation, width)` whose instruction stream this
    /// scenario measures: `(imp, width)`, except for an Auto scenario
    /// of a kernel whose Auto build is its Scalar or Neon@128 stream
    /// ([`crate::Kernel::auto_stream`]). [`crate::campaign::plan`] sets
    /// it; it keys the execution groups.
    pub stream: (Impl, Width),
}

impl Scenario {
    /// The stable scenario id, used as the golden-baseline key and in
    /// CLI listings: `LIB.kernel/Impl/wBITS/core`
    /// (e.g. `ZL.adler32/Neon/w256/prime`).
    pub fn id(&self) -> String {
        format!(
            "{}/{}/w{}/{}",
            self.kernel_id,
            self.imp.name(),
            self.width.bits(),
            self.core
        )
    }

    /// Id of the instruction stream this scenario measures on
    /// (`LIB.kernel/Impl/wBITS` of [`Scenario::stream`]): every
    /// scenario sharing this key (same kernel, stream, scale, seed —
    /// the core and, for Auto, the requested implementation aside) is
    /// measured from one recorded execution fanned out to its cores.
    pub fn stream_id(&self) -> String {
        let (imp, width) = self.stream;
        format!("{}/{}/w{}", self.kernel_id, imp.name(), width.bits())
    }

    /// Grouping key of [`Scenario::stream_id`], hashable and exact
    /// (the scale is compared bitwise).
    pub(crate) fn stream_key(&self) -> (usize, Impl, Width, u64, u64) {
        (
            self.kernel,
            self.stream.0,
            self.stream.1,
            self.scale.0.to_bits(),
            self.seed,
        )
    }
}

/// A conjunctive filter over scenarios: every populated field must
/// match. Parsed from the `swan-report --only` syntax; several filters
/// form a union (a scenario runs if any filter accepts it).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioFilter {
    /// Restrict to one library.
    pub lib: Option<Library>,
    /// Case-insensitive substring of the `LIB.kernel` id.
    pub kernel: Option<String>,
    /// Restrict to one implementation.
    pub imp: Option<Impl>,
    /// Restrict to one register width.
    pub width: Option<Width>,
    /// Restrict to one core configuration.
    pub core: Option<CoreId>,
}

impl ScenarioFilter {
    /// Parse a `key=value[,key=value...]` spec. Keys: `lib` (Table 2
    /// symbol, `LT` alias accepted), `kernel` (substring of the
    /// `LIB.kernel` id), `impl` (`scalar|auto|neon`), `width` (bits,
    /// optionally `w`-prefixed), `core` (a [`CoreId`], e.g. `prime` or
    /// `4w-2v`).
    pub fn parse(spec: &str) -> Result<ScenarioFilter, String> {
        let mut f = ScenarioFilter::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("filter clause `{clause}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "lib" => {
                    f.lib = Some(
                        Library::from_symbol(value)
                            .ok_or_else(|| format!("unknown library symbol `{value}`"))?,
                    );
                }
                "kernel" => f.kernel = Some(value.to_ascii_lowercase()),
                "impl" => {
                    f.imp = Some(
                        Impl::parse(value)
                            .ok_or_else(|| format!("unknown implementation `{value}`"))?,
                    );
                }
                "width" => {
                    let bits = value.trim_start_matches(['w', 'W']);
                    f.width = Width::ALL
                        .into_iter()
                        .find(|w| w.bits().to_string() == bits)
                        .map(Some)
                        .ok_or_else(|| format!("unknown width `{value}` (128/256/512/1024)"))?;
                }
                "core" => {
                    f.core = Some(
                        CoreId::parse(value).ok_or_else(|| format!("unknown core id `{value}`"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown filter key `{other}` (lib, kernel, impl, width, core)"
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Whether a scenario satisfies every populated clause.
    pub fn matches(&self, sc: &Scenario) -> bool {
        self.lib
            .is_none_or(|lib| sc.kernel_id.split('.').next() == Some(lib.info().symbol))
            && self
                .kernel
                .as_ref()
                .is_none_or(|k| sc.kernel_id.to_ascii_lowercase().contains(k))
            && self.imp.is_none_or(|i| sc.imp == i)
            && self.width.is_none_or(|w| sc.width == w)
            && self.core.is_none_or(|c| sc.core == c)
    }
}

/// Retain the scenarios accepted by any of `filters` (an empty filter
/// list keeps the whole plan), preserving plan order.
pub fn filter_plan(plan: &[Scenario], filters: &[ScenarioFilter]) -> Vec<Scenario> {
    plan.iter()
        .filter(|sc| filters.is_empty() || filters.iter().any(|f| f.matches(sc)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(kernel_id: &str, imp: Impl, width: Width, core: CoreId) -> Scenario {
        Scenario {
            kernel: 0,
            kernel_id: kernel_id.to_string(),
            imp,
            width,
            core,
            scale: Scale::test(),
            seed: 42,
            stream: (imp, width),
        }
    }

    #[test]
    fn scenario_id_shape() {
        let sc = scenario("ZL.adler32", Impl::Neon, Width::W256, CoreId::Prime);
        assert_eq!(sc.id(), "ZL.adler32/Neon/w256/prime");
        assert_eq!(sc.stream_id(), "ZL.adler32/Neon/w256");
        // An Auto scenario keeps its id but names the stream it runs.
        let auto = Scenario {
            stream: (Impl::Scalar, Width::W128),
            ..scenario("ZL.adler32", Impl::Auto, Width::W128, CoreId::Prime)
        };
        assert_eq!(auto.id(), "ZL.adler32/Auto/w128/prime");
        assert_eq!(auto.stream_id(), "ZL.adler32/Scalar/w128");
    }

    #[test]
    fn filter_parses_and_matches() {
        let f = ScenarioFilter::parse("lib=ZL, impl=neon, width=w256, core=prime").unwrap();
        assert!(f.matches(&scenario(
            "ZL.adler32",
            Impl::Neon,
            Width::W256,
            CoreId::Prime
        )));
        assert!(!f.matches(&scenario(
            "ZL.adler32",
            Impl::Neon,
            Width::W128,
            CoreId::Prime
        )));
        assert!(!f.matches(&scenario(
            "LJ.adler32",
            Impl::Neon,
            Width::W256,
            CoreId::Prime
        )));

        let k = ScenarioFilter::parse("kernel=adler").unwrap();
        assert!(k.matches(&scenario(
            "ZL.adler32",
            Impl::Scalar,
            Width::W128,
            CoreId::Silver
        )));

        // The paper's LT alias resolves to LJ.
        let lt = ScenarioFilter::parse("lib=LT").unwrap();
        assert_eq!(lt.lib, Some(Library::LJ));

        assert!(ScenarioFilter::parse("width=127").is_err());
        assert!(ScenarioFilter::parse("cpu=prime").is_err());
        assert!(ScenarioFilter::parse("lib").is_err());
    }

    #[test]
    fn filter_union_and_empty_keep_plan_order() {
        let plan = vec![
            scenario("ZL.adler32", Impl::Scalar, Width::W128, CoreId::Prime),
            scenario("ZL.adler32", Impl::Neon, Width::W128, CoreId::Prime),
            scenario("LJ.rgb_to_ycbcr", Impl::Neon, Width::W128, CoreId::Gold),
        ];
        assert_eq!(filter_plan(&plan, &[]), plan);
        let union = [
            ScenarioFilter::parse("impl=scalar").unwrap(),
            ScenarioFilter::parse("core=gold").unwrap(),
        ];
        let got = filter_plan(&plan, &union);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].imp, Impl::Scalar);
        assert_eq!(got[1].core, CoreId::Gold);
    }
}
