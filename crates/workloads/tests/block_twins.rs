//! Batched-vs-per-access twin tests.
//!
//! `TraceGenerator::fill_block` must be indistinguishable from calling
//! `next_access` in a loop — the simulator's dispatch loop relies on
//! it, and the layout-equivalence fixtures assume it. These twins cover one
//! benchmark per generator family (streaming, pointer-chasing, reuse,
//! phased, graph-like), odd block-boundary sizes, and a property test over
//! arbitrary interleavings of block sizes.

use proptest::prelude::*;
use workloads::spec::benchmark;
use workloads::{Access, TraceGenerator};

/// One representative per component family (see `workloads::components`):
/// `lbm` = streaming stores, `mcf` = pointer chase, `leela` = small reused
/// working set, `cactuBSSN` = phased regions, `pr` = graph-like
/// (power-law working set + chase).
const FAMILIES: [&str; 5] = ["lbm", "mcf", "leela", "cactuBSSN", "pr"];

const PLACEHOLDER: Access = Access {
    addr: 0,
    is_write: false,
    pc: 0,
    gap: 0,
    dependent: false,
};

fn stream_via_blocks(name: &str, core: usize, seed: u64, sizes: &[usize]) -> Vec<Access> {
    let mut g = benchmark(name).unwrap().generator(core, seed);
    let mut out = Vec::new();
    for &sz in sizes {
        let mut buf = vec![PLACEHOLDER; sz];
        g.fill_block(&mut buf);
        out.extend_from_slice(&buf);
    }
    out
}

fn stream_per_access(name: &str, core: usize, seed: u64, n: usize) -> Vec<Access> {
    let mut g = benchmark(name).unwrap().generator(core, seed);
    (0..n).map(|_| g.next_access()).collect()
}

#[test]
fn every_family_matches_at_boundary_sizes() {
    // 1, 7, block-1, block, block+1 for the cache's block size of 256.
    let sizes = [1usize, 7, 255, 256, 257];
    let total: usize = sizes.iter().sum();
    for name in FAMILIES {
        let blocked = stream_via_blocks(name, 0, 0x51ed, &sizes);
        let plain = stream_per_access(name, 0, 0x51ed, total);
        assert_eq!(blocked, plain, "fill_block diverged for {name}");
    }
}

#[test]
fn cached_trace_matches_at_boundary_sizes() {
    let sizes = [1usize, 7, 255, 256, 257];
    let total: usize = sizes.iter().sum();
    for name in FAMILIES {
        let spec = benchmark(name).unwrap();
        let mut cache = workloads::block::TraceCache::default();
        let mut g = cache.generator(&spec, 0, 0x51ed);
        let mut blocked = Vec::new();
        for &sz in &sizes {
            let mut buf = vec![PLACEHOLDER; sz];
            g.fill_block(&mut buf);
            blocked.extend_from_slice(&buf);
        }
        let plain = stream_per_access(name, 0, 0x51ed, total);
        assert_eq!(blocked, plain, "CachedTrace diverged for {name}");
    }
}

#[test]
fn zero_length_block_is_a_no_op() {
    for name in FAMILIES {
        let sizes = [3usize, 0, 5, 0, 0, 8];
        let blocked = stream_via_blocks(name, 2, 7, &sizes);
        let plain = stream_per_access(name, 2, 7, 16);
        assert_eq!(blocked, plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of block sizes yields the identical stream, for a
    /// fresh generator and for a replaying cached cursor alike.
    #[test]
    fn arbitrary_block_interleavings_preserve_the_stream(
        family in 0usize..FAMILIES.len(),
        seed in any::<u64>(),
        sizes in proptest::collection::vec(0usize..300, 1..8),
    ) {
        let name = FAMILIES[family];
        let total: usize = sizes.iter().sum();
        let blocked = stream_via_blocks(name, 1, seed, &sizes);
        let plain = stream_per_access(name, 1, seed, total);
        prop_assert_eq!(&blocked, &plain);

        let spec = benchmark(name).unwrap();
        let mut cache = workloads::block::TraceCache::default();
        let mut g = cache.generator(&spec, 1, seed);
        let mut cached = Vec::new();
        for &sz in &sizes {
            let mut buf = vec![PLACEHOLDER; sz];
            g.fill_block(&mut buf);
            cached.extend_from_slice(&buf);
        }
        prop_assert_eq!(&cached, &plain);
    }
}
