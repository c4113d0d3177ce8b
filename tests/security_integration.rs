//! Integration tests tying the three security views together: the real
//! cache, the bucket-and-balls Monte-Carlo model, and the analytic
//! Birth–Death model must tell one consistent story.

use maya_repro::maya_core::{CacheModel, DomainId, MayaCache, MayaConfig, Request};
use maya_repro::security_model::analytic::AnalyticModel;
use maya_repro::security_model::balls::BallsSim;
use maya_repro::security_model::config::BallsConfig;

/// The analytic model reproduces the paper's calibration: Pr(n=0) from a
/// trillion-iteration run was ~7.7e-7; our normalization-solved value must
/// land on the same order without any Monte-Carlo input.
#[test]
fn analytic_matches_paper_calibration_point() {
    let d = AnalyticModel::new(3.0, 6.0).distribution(40);
    assert!((7.7e-8..7.7e-6).contains(&d[0]), "Pr(n=0) = {:.3e}", d[0]);
}

/// Monte-Carlo and analytic occupancy distributions agree in the bulk
/// (Figure 7's cross-validation).
#[test]
fn monte_carlo_and_analytic_distributions_agree() {
    let mut sim = BallsSim::new(BallsConfig::small(15));
    let out = sim.run(300_000);
    let analytic = AnalyticModel::new(3.0, 6.0).distribution(15);
    for (n, &a) in analytic.iter().enumerate().take(13).skip(5) {
        let e = out.occupancy[n];
        assert!(
            e > 0.0 && (e / a).log10().abs() < 0.5,
            "n={n}: experimental {e:.3e} vs analytic {a:.3e}"
        );
    }
}

/// The real cache's bucket-occupancy distribution matches the balls model's
/// steady state: the same average load and the same tail behaviour.
#[test]
fn real_cache_occupancies_match_the_balls_model() {
    let config = MayaConfig::with_sets(512, 9);
    let mut cache = MayaCache::new(config.clone());
    // Mixed demand/writeback traffic with reuse drives the tag store to its
    // steady-state composition.
    for i in 0..600_000u64 {
        let line = i % 200_000;
        if i % 3 == 0 {
            cache.access(Request::writeback(line, DomainId(0)));
        } else {
            cache.access(Request::read(line, DomainId(0)));
        }
    }
    let p0 = cache.p0_count();
    let p1 = cache.p1_count();
    assert_eq!(
        p0,
        config.p0_capacity(),
        "p0 population must pin at capacity"
    );
    assert_eq!(p1, config.data_entries(), "data store must be full");
    // Average bucket load = 9 balls, as in Table II.
    let buckets = config.sets_per_skew * config.skews;
    let avg = (p0 + p1) as f64 / buckets as f64;
    assert!((avg - 9.0).abs() < 1e-9, "avg load {avg}");
    assert_eq!(cache.stats().saes, 0);
    cache.audit().expect("MayaCache invariant violated");
}

/// Security degrades monotonically along every axis the paper sweeps:
/// fewer invalid ways, more reuse ways, higher associativity.
#[test]
fn analytic_monotonicity_along_all_axes() {
    // Invalid ways.
    let m = AnalyticModel::new(3.0, 6.0);
    let by_invalid: Vec<f64> = (3..=7).map(|inv| m.installs_per_sae(9 + inv)).collect();
    assert!(
        by_invalid.windows(2).all(|w| w[1] > w[0] * 100.0),
        "{by_invalid:?}"
    );
    // Reuse ways at fixed capacity budget.
    let by_reuse: Vec<f64> = [1usize, 3, 5, 7]
        .iter()
        .map(|&r| AnalyticModel::new(r as f64, 6.0).installs_per_sae(6 + r + 6))
        .collect();
    assert!(by_reuse.windows(2).all(|w| w[1] < w[0]), "{by_reuse:?}");
    // Associativity (Table IV).
    let by_assoc: Vec<f64> = [(1.0, 3.0), (3.0, 6.0), (6.0, 12.0)]
        .iter()
        .map(|&(r, b)| AnalyticModel::new(r, b).installs_per_sae((r + b) as usize + 6))
        .collect();
    assert!(by_assoc.windows(2).all(|w| w[1] < w[0]), "{by_assoc:?}");
}

/// The balls model and the real cache agree on the *load-aware* claim: the
/// paper-default provisioning absorbs worst-case fill storms without SAEs.
#[test]
fn default_provisioning_survives_fill_storms() {
    let mut cache = MayaCache::new(MayaConfig::with_sets(256, 11));
    for i in 0..500_000u64 {
        // Worst case: every access is a miss (the paper's security analysis
        // assumption), alternating demand and writeback misses.
        if i % 2 == 0 {
            cache.access(Request::read(i, DomainId((i % 4) as u16)));
        } else {
            cache.access(Request::writeback(i, DomainId((i % 4) as u16)));
        }
    }
    assert_eq!(cache.stats().saes, 0);

    let mut sim = BallsSim::new(BallsConfig::small(15));
    let out = sim.run(500_000);
    assert_eq!(
        out.spills, 0,
        "balls model must agree: no spills at capacity 15"
    );
}
