//! Attack experiments: the Figure 8 occupancy attack and two demonstration
//! experiments (eviction-set construction and Flush+Reload).

use attacks::eviction::{build_eviction_set, targeted_eviction};
use attacks::flush::flush_reload_leaks;
use attacks::occupancy::{encryptions_to_distinguish, OccupancyAttack};
use attacks::victims::{AesVictim, ModExpVictim, Victim};
use maya_core::{
    CacheModel, FullyAssocCache, MayaCache, MayaConfig, MirageCache, MirageConfig, Policy,
    SetAssocCache, SetAssocConfig,
};
use maya_core::{DomainId, Request};

use crate::designs::Design;
use crate::sched::{CellOut, Sweep};
use crate::Scale;

/// The three cache shapes of Figure 8, built small enough that the victim's
/// footprint is a measurable fraction of the cache. Capacity ratios follow
/// the paper (Maya's data store is 3/4 of the conventional capacity).
fn fig8_cache(kind: &str, seed: u64) -> Box<dyn CacheModel> {
    match kind {
        "16-way" => Box::new(SetAssocCache::new(SetAssocConfig {
            seed,
            ..SetAssocConfig::new(32, 16, Policy::Random)
        })),
        "maya" => Box::new(MayaCache::new(MayaConfig::with_sets(32, seed))),
        "fully-assoc" => Box::new(FullyAssocCache::new(512, seed)),
        other => panic!("unknown fig8 cache {other}"),
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// The cache kinds of Figure 8, fully-associative last (the normalization
/// denominator).
const FIG8_KINDS: [&str; 3] = ["16-way", "maya", "fully-assoc"];
const FIG8_VICTIMS: [&str; 2] = ["aes", "modexp"];

/// One Figure 8 trial: encryptions to distinguish the two keys on one
/// freshly seeded cache.
fn fig8_trial(victim_kind: &str, kind: &str, trial: usize) -> u64 {
    let seed = 1000 + trial as u64;
    let mut cache = fig8_cache(kind, seed);
    // Prime the *entire* cache: every victim insertion must
    // displace attacker data, or the signal decays to zero once
    // the victim's footprint becomes resident.
    let lines = cache.capacity_lines() as u64;
    let mut attack = OccupancyAttack::new(cache.as_mut(), lines);
    let (mut a, mut b): (Box<dyn Victim>, Box<dyn Victim>) = match victim_kind {
        "aes" => (
            Box::new(AesVictim::new([0x11; 16], 1 << 30)),
            Box::new(AesVictim::new([0xd3; 16], 2 << 30)),
        ),
        _ => (
            Box::new(ModExpVictim::new(0x0000_00ff_00ff_0000, 1 << 30)),
            Box::new(ModExpVictim::new(0xffff_0fff_ffff_ff0f, 2 << 30)),
        ),
    };
    encryptions_to_distinguish(&mut attack, a.as_mut(), b.as_mut(), 4.0, 20_000).encryptions
}

/// Figure 8: encryptions needed to distinguish two victim keys through the
/// occupancy channel, per cache design, normalized to the fully-associative
/// cache. One job per (victim, cache, trial); the assembler takes the
/// median over trials and normalizes within each victim.
pub fn fig8_occupancy_attack(scale: Scale) -> Sweep {
    let mut sw = Sweep::new(
        "fig8",
        "occupancy attack: encryptions to distinguish two keys (median)",
        "victim\tcache\tencryptions\tnormalized_to_fa",
    );
    for victim_kind in FIG8_VICTIMS {
        for kind in FIG8_KINDS {
            for trial in 0..scale.attack_trials {
                sw.job(kind, victim_kind, 1000 + trial as u64, scale, move || {
                    CellOut::stats(vec![fig8_trial(victim_kind, kind, trial) as f64])
                });
            }
        }
    }
    let trials = scale.attack_trials;
    sw.assemble_with(move |outs| {
        let mut s = String::new();
        for (v, victim_kind) in FIG8_VICTIMS.iter().enumerate() {
            let results: Vec<(&str, u64)> = FIG8_KINDS
                .iter()
                .enumerate()
                .map(|(k, kind)| {
                    let start = (v * FIG8_KINDS.len() + k) * trials;
                    let medians: Vec<u64> = outs[start..start + trials]
                        .iter()
                        .map(|o| o.stats[0] as u64)
                        .collect();
                    (*kind, median(medians))
                })
                .collect();
            let fa = results.last().expect("fa last").1 as f64;
            for (kind, n) in &results {
                s.push_str(&format!(
                    "{victim_kind}\t{kind}\t{n}\t{:.3}\n",
                    *n as f64 / fa
                ));
            }
        }
        s
    });
    sw
}

/// Demonstration: targeted eviction and eviction-set construction succeed
/// on the baseline and fail on Maya/Mirage.
pub fn demo_eviction() -> Sweep {
    let mut sw = Sweep::new(
        "demo-eviction",
        "fills needed to evict a victim line with congruent addresses",
        "cache\tfills_until_eviction\tsaes\teviction_set",
    );
    let scale = Scale::quick();
    sw.job("baseline", "congruent", 0, scale, || {
        let mut baseline = SetAssocCache::new(SetAssocConfig::new(256, 16, Policy::Lru));
        let r = targeted_eviction(&mut baseline, 256, 100_000);
        // The pool must contain ~2 sets' worth of congruent lines for group
        // testing to find an eviction set (256 sets -> ~1/256 of the pool).
        let set = build_eviction_set(&mut baseline, 0x12345, 16_384, 7);
        CellOut::text(format!(
            "baseline\t{}\t{}\t{}\n",
            r.fills_until_eviction,
            r.saes,
            set.map(|s| format!("found({} lines)", s.len()))
                .unwrap_or("none".into())
        ))
    });
    sw.job("maya", "congruent", 0, scale, || {
        let mut maya = MayaCache::new(MayaConfig::with_sets(256, 3));
        let r = targeted_eviction(&mut maya, 256, 100_000);
        let set = build_eviction_set(&mut maya, 0x12345, 512, 7);
        CellOut::text(format!(
            "maya\t{}\t{}\t{}\n",
            r.fills_until_eviction,
            r.saes,
            set.map(|s| format!("found({} lines)", s.len()))
                .unwrap_or("none".into())
        ))
    });
    sw.job("mirage", "congruent", 0, scale, || {
        let mut mirage = MirageCache::new(MirageConfig::for_data_entries(8 * 1024, 3));
        let r = targeted_eviction(&mut mirage, 256, 100_000);
        CellOut::text(format!(
            "mirage\t{}\t{}\tnot-attempted\n",
            r.fills_until_eviction, r.saes
        ))
    });
    sw
}

/// Demonstration (paper Section II-B): the SAE behaviour of the whole
/// randomized-LLC lineage under a worst-case fill storm. CEASER,
/// CEASER-S, and ScatterCache perform an address-correlated eviction on
/// every conflict — their security rests on re-keying faster than
/// eviction-set construction — the 75%-capped Threshold design still
/// spills, and Mirage and Maya record none at all.
pub fn demo_randomized_lineage() -> Sweep {
    let mut sw = Sweep::new(
        "demo-randomized",
        "SAEs per million fills across randomized LLC designs (fill storm)",
        "design\tfills\tsaes\tsae_rate",
    );
    let lines = 64 * 1024;
    let fills: u64 = 1_000_000;
    let designs = [
        Design::Ceaser,
        Design::CeaserS,
        Design::Scatter,
        Design::Threshold,
        Design::Mirage,
        Design::Maya,
    ];
    for d in designs {
        sw.job(d.id(), "fill-storm", 0, Scale::quick(), move || {
            let mut cache = d.build(lines, 3);
            for i in 0..fills {
                // Alternate demand and writeback misses: the worst case of the
                // security analysis (every access a miss).
                if i % 2 == 0 {
                    cache.access(Request::read(i, DomainId(0)));
                } else {
                    cache.access(Request::writeback(i, DomainId(0)));
                }
            }
            let saes = cache.stats().saes;
            CellOut::text(format!(
                "{}\t{fills}\t{saes}\t{:.2e}\n",
                cache.name(),
                saes as f64 / fills as f64
            ))
        });
    }
    sw
}

/// Demonstration: Flush+Reload leaks on the baseline, not on the SDID
/// designs.
pub fn demo_flush_reload() -> Sweep {
    let mut sw = Sweep::new(
        "demo-flush",
        "does Flush+Reload observe the victim?",
        "cache\tleaks",
    );
    let scale = Scale::quick();
    sw.job("baseline", "flush-reload", 0, scale, || {
        let mut baseline = SetAssocCache::new(SetAssocConfig::new(1024, 16, Policy::Lru));
        CellOut::text(format!("baseline\t{}\n", flush_reload_leaks(&mut baseline)))
    });
    sw.job("maya", "flush-reload", 0, scale, || {
        let mut maya = MayaCache::new(MayaConfig::with_sets(256, 3));
        CellOut::text(format!("maya\t{}\n", flush_reload_leaks(&mut maya)))
    });
    sw.job("mirage", "flush-reload", 0, scale, || {
        let mut mirage = MirageCache::new(MirageConfig::for_data_entries(8 * 1024, 3));
        CellOut::text(format!("mirage\t{}\n", flush_reload_leaks(&mut mirage)))
    });
    sw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{self, RunOpts};

    #[test]
    fn fig8_caches_build() {
        for kind in ["16-way", "maya", "fully-assoc"] {
            let c = fig8_cache(kind, 1);
            assert!(c.capacity_lines() >= 384, "{kind}");
        }
    }

    #[test]
    fn demos_print() {
        let (text, summary) = sched::execute(demo_flush_reload(), &RunOpts::serial());
        assert!(text.starts_with("# demo-flush:"));
        assert_eq!(summary.jobs, 3);
        assert!(text.lines().any(|l| l.starts_with("baseline\t")));
    }

    #[test]
    fn median_of_odd_list() {
        assert_eq!(median(vec![5, 1, 9]), 5);
    }
}
