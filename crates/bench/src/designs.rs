//! LLC design catalog: builds any evaluated design at any system scale.

use maya_core::{
    partitioned, CacheModel, CeaserCache, CeaserConfig, FullyAssocCache, MayaCache, MayaConfig,
    MirageCache, MirageConfig, Policy, ScatterCache, ScatterConfig, SetAssocCache, SetAssocConfig,
    ThresholdCache, ThresholdConfig,
};
use maya_fault::{FaultPlan, FaultyModel, RecoveryPolicy};
use power_model::maya_iso_config;

/// Security domains the partitioned designs divide the LLC among.
const DOMAINS: usize = 8;

/// Every LLC design the evaluation touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Non-secure 16-way set-associative SRRIP baseline.
    Baseline,
    /// Mirage with the default 8+6 ways/skew.
    Mirage,
    /// Mirage-Lite: Mirage with 5 extra ways/skew (weaker guarantee).
    MirageLite,
    /// Maya with the default 6+3+6 ways/skew (12 MB data store).
    Maya,
    /// Maya with a non-default reuse-way count (Figure 4 sweep).
    MayaReuseWays(usize),
    /// Maya grown to Mirage's area (16 MB data store).
    MayaIso,
    /// A true fully-associative cache with random replacement.
    FullyAssociative,
    /// DAWG way-partitioning over 8 domains.
    Dawg,
    /// Page-coloring set-partitioning over 8 domains.
    PageColoring,
    /// BCE flexible set-partitioning (equal 64 KB-unit allocations here;
    /// full DRAM parallelism, unlike page coloring).
    Bce,
    /// CEASER: encrypted set indexing with periodic remapping (100k-access
    /// epoch), single skew.
    Ceaser,
    /// CEASER-S: CEASER with two skews.
    CeaserS,
    /// ScatterCache-style skewed randomized indexing (no remapping).
    Scatter,
    /// The threshold-replacement strawman from the paper's discussion of
    /// storage-efficient fully-associative designs.
    Threshold,
}

impl Design {
    /// Every design, one representative variant each (the Figure-4 reuse
    /// sweep is represented by the default [`Design::Maya`]). Used by
    /// catalog-wide tests so new designs cannot dodge coverage.
    pub fn all() -> Vec<Design> {
        vec![
            Design::Baseline,
            Design::Mirage,
            Design::MirageLite,
            Design::Maya,
            Design::MayaReuseWays(1),
            Design::MayaReuseWays(7),
            Design::MayaIso,
            Design::FullyAssociative,
            Design::Dawg,
            Design::PageColoring,
            Design::Bce,
            Design::Ceaser,
            Design::CeaserS,
            Design::Scatter,
            Design::Threshold,
        ]
    }

    /// Experiment-facing identifier.
    pub fn id(&self) -> String {
        match self {
            Design::Baseline => "baseline".into(),
            Design::Mirage => "mirage".into(),
            Design::MirageLite => "mirage-lite".into(),
            Design::Maya => "maya".into(),
            Design::MayaReuseWays(r) => format!("maya-r{r}"),
            Design::MayaIso => "maya-iso".into(),
            Design::FullyAssociative => "fully-assoc".into(),
            Design::Dawg => "dawg".into(),
            Design::PageColoring => "page-coloring".into(),
            Design::Bce => "bce".into(),
            Design::Ceaser => "ceaser".into(),
            Design::CeaserS => "ceaser-s".into(),
            Design::Scatter => "scatter".into(),
            Design::Threshold => "threshold".into(),
        }
    }

    /// The registered design whose [`id`](Self::id) is `id`, if any (a
    /// lookup over [`Design::all`]).
    pub fn from_id(id: &str) -> Option<Design> {
        Design::all().into_iter().find(|d| d.id() == id)
    }

    /// How many security domains (cores) the design can serve, or `None`
    /// if it takes any number.
    pub fn max_domains(&self) -> Option<usize> {
        match self {
            Design::Dawg | Design::PageColoring | Design::Bce => Some(DOMAINS),
            _ => None,
        }
    }

    /// Builds the design for a system whose non-secure baseline would hold
    /// `baseline_lines` lines (2 MB = 32K lines per core).
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot be formed (non-power-of-two set
    /// counts).
    pub fn build(&self, baseline_lines: usize, seed: u64) -> Box<dyn CacheModel> {
        let sets = baseline_lines / 16;
        match self {
            Design::Baseline => Box::new(SetAssocCache::new(SetAssocConfig {
                seed,
                ..SetAssocConfig::new(sets, 16, Policy::Drrip)
            })),
            Design::Mirage => Box::new(MirageCache::new(MirageConfig::for_data_entries(
                baseline_lines,
                seed,
            ))),
            Design::MirageLite => Box::new(MirageCache::new(MirageConfig {
                extra_ways_per_skew: 5,
                ..MirageConfig::for_data_entries(baseline_lines, seed)
            })),
            Design::Maya => Box::new(MayaCache::new(MayaConfig::for_baseline_lines(
                baseline_lines,
                seed,
            ))),
            Design::MayaReuseWays(r) => Box::new(MayaCache::new(MayaConfig {
                reuse_ways_per_skew: *r,
                ..MayaConfig::for_baseline_lines(baseline_lines, seed)
            })),
            Design::MayaIso => Box::new(MayaCache::new(MayaConfig {
                sets_per_skew: sets,
                seed,
                ..maya_iso_config()
            })),
            Design::FullyAssociative => Box::new(FullyAssocCache::new(baseline_lines, seed)),
            Design::Dawg => Box::new(partitioned::dawg(sets, 16, DOMAINS, Policy::Drrip)),
            Design::PageColoring => {
                Box::new(partitioned::page_coloring(sets, 16, DOMAINS, Policy::Drrip))
            }
            Design::Bce => {
                // Equal allocations sized to the whole cache, in 64 KB units.
                let units_per_domain = baseline_lines / DOMAINS / partitioned::BCE_UNIT_LINES;
                Box::new(partitioned::bce(
                    sets,
                    16,
                    &[units_per_domain; DOMAINS],
                    Policy::Drrip,
                ))
            }
            Design::Ceaser => Box::new(CeaserCache::new(CeaserConfig::ceaser(
                baseline_lines,
                100_000,
                seed,
            ))),
            Design::CeaserS => Box::new(CeaserCache::new(CeaserConfig::ceaser_s(
                baseline_lines,
                100_000,
                seed,
            ))),
            Design::Scatter => Box::new(ScatterCache::new(ScatterConfig::for_lines(
                baseline_lines,
                seed,
            ))),
            Design::Threshold => Box::new(ThresholdCache::new(ThresholdConfig::paper_discussion(
                baseline_lines,
                seed,
            ))),
        }
    }

    /// Builds the design wrapped in a [`FaultyModel`] decorator: the
    /// robustness experiment's entry point, and handy anywhere a design
    /// should run under a fault schedule (`scrub_every` = 0 disables
    /// scrubbing).
    pub fn build_with_faults(
        &self,
        baseline_lines: usize,
        seed: u64,
        plan: FaultPlan,
        policy: RecoveryPolicy,
        scrub_every: u64,
    ) -> FaultyModel {
        FaultyModel::new(self.build(baseline_lines, seed), plan, policy, scrub_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_designs_build_at_16mb_scale() {
        let lines = 256 * 1024;
        for d in Design::all() {
            let c = d.build(lines, 1);
            assert!(c.capacity_lines() > 0, "{}", d.id());
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<String> = Design::all().iter().map(|d| d.id()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate design ids");
        for d in Design::all() {
            assert_eq!(Design::from_id(&d.id()), Some(d));
        }
    }

    #[test]
    fn maya_capacity_is_three_quarters_of_baseline() {
        let c = Design::Maya.build(256 * 1024, 1);
        assert_eq!(c.capacity_lines(), 192 * 1024);
        let iso = Design::MayaIso.build(256 * 1024, 1);
        assert_eq!(iso.capacity_lines(), 256 * 1024);
    }

    #[test]
    fn faulty_wrapper_builds_for_every_design() {
        for d in Design::all() {
            let c = d.build_with_faults(8192, 1, FaultPlan::empty(), RecoveryPolicy::Quarantine, 0);
            assert_eq!(
                c.capacity_lines(),
                d.build(8192, 1).capacity_lines(),
                "{}",
                d.id()
            );
        }
    }

    #[test]
    fn ids_are_stable() {
        assert_eq!(Design::MayaReuseWays(5).id(), "maya-r5");
        assert_eq!(Design::Baseline.id(), "baseline");
    }
}
