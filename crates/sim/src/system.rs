//! The multi-core system: cores with ROB/MSHR-limited memory-level
//! parallelism, private L1D/L2, a shared pluggable LLC, and shared DRAM.

use maya_core::{AccessKind, CacheModel, DomainId, Request};
use maya_obs::{Component, EventKind, ProbeHandle, ProfileHandle};
use workloads::block::BLOCK_ACCESSES;
use workloads::mixes::Mix;
use workloads::{Access, TraceGenerator};

use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::inflight::InflightTable;
use crate::prefetch::StridePrefetcher;
use crate::private::PrivateCache;
use crate::stats::{CoreResult, RunResult};

/// MSHR occupancy window: completion times of in-flight misses.
///
/// Only multiset semantics are observable — take the minimum when the
/// window is full, retire everything due, report the maximum at drain —
/// so a flat unordered vector (≤ `mlp` entries, one or two cache lines)
/// with linear scans replaces the `BinaryHeap` the hot loop used to sift
/// on every miss. Equal completion times are indistinguishable (`u64`),
/// so scan order cannot leak into results.
#[derive(Default)]
struct MshrWindow {
    slots: Vec<u64>,
}

impl MshrWindow {
    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn push(&mut self, completion: u64) {
        self.slots.push(completion);
    }

    /// Removes and returns the earliest completion, if any.
    #[inline]
    fn pop_min(&mut self) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let mut min = 0;
        for i in 1..self.slots.len() {
            if self.slots[i] < self.slots[min] {
                min = i;
            }
        }
        Some(self.slots.swap_remove(min))
    }

    /// Retires every miss whose completion is at or before `now`.
    #[inline]
    fn retire_through(&mut self, now: u64) {
        self.slots.retain(|&c| c > now);
    }

    /// Latest outstanding completion (the end-of-run drain point).
    #[inline]
    fn max(&self) -> Option<u64> {
        self.slots.iter().copied().max()
    }
}

/// One simulated core and its private hierarchy.
struct Core {
    gen: Box<dyn TraceGenerator>,
    /// Reusable block buffer the generator fills through one virtual call
    /// per [`BLOCK_ACCESSES`] accesses instead of one per access. Pulling
    /// ahead of consumption is transcript-invisible: each core's generator
    /// RNG is self-contained, so extra draws at the end of a run affect
    /// nothing observable.
    block: Vec<Access>,
    /// Next unconsumed index into `block`.
    block_pos: usize,
    /// Trace accesses consumed (for front-end throughput reporting).
    accesses: u64,
    domain: DomainId,
    l1d: PrivateCache,
    l2: PrivateCache,
    prefetcher: StridePrefetcher,
    /// Core clock in cycles.
    t: u64,
    /// Residual instructions not yet converted to whole cycles.
    instr_carry: u32,
    /// Completion times of in-flight misses (MSHR occupancy).
    outstanding: MshrWindow,
    /// Completion time of the most recent load (dependence chain head).
    last_load_completion: u64,
    /// Total instructions retired (warm-up + measurement).
    retired: u64,
    /// Lines with an in-flight prefetch: line -> cycle the data arrives.
    /// A demand that finds its line still in flight merges with the
    /// prefetch (counted as an LLC demand miss, waiting the residual
    /// latency) — this is what keeps an idealized prefetcher from
    /// pretending streams are free. A deterministic open-addressing table
    /// (fixed multiplicative hash, set-semantics only): simulation results
    /// must never depend on hasher iteration order.
    inflight_prefetch: InflightTable,
    /// Scratch buffer the prefetcher emits into; reused every access so
    /// the hot path never allocates.
    prefetch_buf: Vec<u64>,
    measuring: bool,
    meas_start_cycle: u64,
    meas: CoreResult,
}

/// The simulated system (see the crate docs for the model).
pub struct System {
    config: SystemConfig,
    llc: Box<dyn CacheModel>,
    dram: Dram,
    cores: Vec<Core>,
    warmed: usize,
    probe: ProbeHandle,
    profiler: ProfileHandle,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("llc", &self.llc.name())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `mix` on the given LLC design.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from the configuration's.
    pub fn new(config: SystemConfig, llc: Box<dyn CacheModel>, mix: &Mix, seed: u64) -> Self {
        assert_eq!(
            mix.specs.len(),
            config.cores,
            "mix has {} cores but the system is configured for {}",
            mix.specs.len(),
            config.cores
        );
        let gens = mix
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Box::new(spec.generator(i, seed)) as Box<dyn TraceGenerator>)
            .collect();
        Self::with_generators(config, llc, gens)
    }

    /// Builds a system from explicit per-core trace generators (one per
    /// configured core, in core order).
    ///
    /// This is how experiment grids share one synthesized stream across
    /// designs: pass replay cursors from `workloads::block::TraceCache`
    /// instead of fresh generators. The private L1/L2 models draw no
    /// randomness, so no seed is needed here — determinism rests entirely
    /// on the generators and the LLC.
    ///
    /// # Panics
    ///
    /// Panics if the generator count differs from the configuration's
    /// core count.
    pub fn with_generators(
        config: SystemConfig,
        llc: Box<dyn CacheModel>,
        gens: Vec<Box<dyn TraceGenerator>>,
    ) -> Self {
        assert_eq!(
            gens.len(),
            config.cores,
            "got {} generators but the system is configured for {} cores",
            gens.len(),
            config.cores
        );
        let cores = gens
            .into_iter()
            .enumerate()
            .map(|(i, gen)| Core {
                gen,
                block: Vec::new(),
                block_pos: 0,
                accesses: 0,
                domain: DomainId(i as u16),
                l1d: PrivateCache::new(config.l1d.sets, config.l1d.ways),
                l2: PrivateCache::new(config.l2.sets, config.l2.ways),
                prefetcher: StridePrefetcher::new(config.prefetch_degree),
                t: 0,
                instr_carry: 0,
                outstanding: MshrWindow::default(),
                last_load_completion: 0,
                retired: 0,
                inflight_prefetch: InflightTable::with_capacity(4 * 1024),
                prefetch_buf: Vec::with_capacity(16),
                measuring: false,
                meas_start_cycle: 0,
                meas: CoreResult::default(),
            })
            .collect();
        Self {
            dram: Dram::new(config.dram),
            llc,
            cores,
            warmed: 0,
            probe: ProbeHandle::none(),
            profiler: ProfileHandle::none(),
            config,
        }
    }

    /// Total trace accesses consumed by all cores so far (warm-up and
    /// measurement; front-end throughput = this over wall time).
    pub fn trace_accesses(&self) -> u64 {
        self.cores.iter().map(|c| c.accesses).sum()
    }

    /// Immutable access to the LLC (e.g. to inspect design-specific state).
    pub fn llc(&self) -> &dyn CacheModel {
        self.llc.as_ref()
    }

    /// Attaches an observability probe to the whole system: the LLC, the
    /// DRAM model, and the core loop all emit through clones of `probe`,
    /// sharing one simulated-cycle clock that [`System::step`] advances to
    /// the stepping core's time.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.llc.set_probe(probe.clone());
        self.dram.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Attaches a span profiler to the whole system. The LLC (and through
    /// it the index/PRINCE layer) receives a clone of the handle, so model
    /// spans nest under the simulator's `run`/`core`/`llc` spans in one
    /// tree. Profiling is strictly observational: attached or not, the
    /// simulation's transcript, statistics, and RNG draws are identical.
    pub fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.llc.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// Runs warm-up plus measurement and returns the results.
    pub fn run(&mut self) -> RunResult {
        self.run_impl(None)
    }

    /// Like [`run`](Self::run), but audits the LLC's structural invariants
    /// (see `CacheModel::audit`) every `AUDIT_INTERVAL` trace records and
    /// once more after the run completes.
    ///
    /// This is the checked-simulation mode used by tests: corruption is
    /// caught within ~10k accesses of its introduction rather than
    /// surfacing as silently wrong statistics.
    ///
    /// # Panics
    ///
    /// Panics with the audit's description if the LLC reports corruption.
    pub fn run_checked(&mut self) -> RunResult {
        const AUDIT_INTERVAL: u64 = 10_000;
        let result = self.run_impl(Some(AUDIT_INTERVAL));
        if let Err(e) = self.llc.audit() {
            panic!("LLC '{}' corrupt after checked run: {e}", self.llc.name());
        }
        result
    }

    fn run_impl(&mut self, audit_every: Option<u64>) -> RunResult {
        let cfg = &self.config;
        let target = cfg
            .warmup_instructions
            .saturating_add(cfg.measure_instructions);
        let _run = self.profiler.span(Component::Run);
        // With no probe, no profiler, and no auditing, every per-access
        // observation call is a guaranteed no-op, so the loop is
        // instantiated without them.
        if self.probe.is_active() || self.profiler.is_active() || audit_every.is_some() {
            self.drain::<true>(target, audit_every);
        } else {
            self.drain::<false>(target, None);
        }
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let drain = c.outstanding.max().unwrap_or(c.t);
                let mut m = c.meas.clone();
                m.cycles = drain.max(c.t).saturating_sub(c.meas_start_cycle);
                m
            })
            .collect();
        RunResult {
            cores,
            llc: self.llc.stats().clone(),
            dram: self.dram.counters(),
            llc_name: self.llc.name(),
        }
    }

    /// The dispatch loop. Each access goes to the core furthest behind in
    /// time (the first on ties), so cores interleave realistically at the
    /// shared LLC and DRAM. The pick is made once per drain: core `i` stays
    /// the first minimal core while `t_i` is strictly below every earlier
    /// unfinished core's time and not above any later one's, and both
    /// bounds are constant while only core `i`'s clock moves.
    ///
    /// `OBS` compiles in the per-access observation: the profiler clocks,
    /// the gap-free `sched`/`core` span transitions (every cycle of the
    /// loop is attributed to one of the two, none to `run`), and the audit
    /// every `audit_every` records.
    fn drain<const OBS: bool>(&mut self, target: u64, audit_every: Option<u64>) {
        let mut steps: u64 = 0;
        let mut phase = self.profiler.span(Component::Sched);
        let earliest = |cores: &[Core]| {
            let live = cores.iter().filter(|c| c.retired < target);
            live.map(|c| c.t).min().unwrap_or(u64::MAX)
        };
        while let Some(i) = (0..self.cores.len())
            .filter(|&i| self.cores[i].retired < target)
            .min_by_key(|&i| self.cores[i].t)
        {
            let (before, after) = (earliest(&self.cores[..i]), earliest(&self.cores[i + 1..]));
            loop {
                if OBS {
                    self.profiler.set_cycle(self.cores[i].t);
                    self.profiler.add_accesses(1);
                    phase = phase.transition(Component::Core);
                }
                self.step::<OBS>(i);
                if OBS {
                    phase = phase.transition(Component::Sched);
                    steps = steps.saturating_add(1);
                    if audit_every.is_some_and(|every| steps.is_multiple_of(every)) {
                        let _audit = self.profiler.span(Component::Audit);
                        if let Err(e) = self.llc.audit() {
                            panic!(
                                "LLC '{}' corrupt after {steps} trace records: {e}",
                                self.llc.name()
                            );
                        }
                    }
                }
                let c = &self.cores[i];
                if c.retired >= target || c.t >= before || c.t > after {
                    break;
                }
            }
        }
        drop(phase);
    }

    /// Pulls the next trace record for core `i` from its block buffer,
    /// refilling the buffer through one `fill_block` virtual call when it
    /// runs dry.
    #[inline]
    fn next_access(&mut self, i: usize) -> Access {
        let core = &mut self.cores[i];
        if core.block_pos == core.block.len() {
            if core.block.is_empty() {
                const PLACEHOLDER: Access = Access {
                    addr: 0,
                    is_write: false,
                    pc: 0,
                    gap: 0,
                    dependent: false,
                };
                core.block.resize(BLOCK_ACCESSES, PLACEHOLDER);
            }
            core.gen.fill_block(&mut core.block);
            core.block_pos = 0;
        }
        let a = core.block[core.block_pos];
        core.block_pos = core.block_pos.wrapping_add(1);
        core.accesses = core.accesses.wrapping_add(1);
        a
    }

    /// Executes one trace record (gap instructions plus one memory access)
    /// on core `i`. `OBS` gates the per-access probe/profiler calls; the
    /// loop runs with `OBS = false` only when both handles are inert, where
    /// every gated call is a behavioral no-op.
    fn step<const OBS: bool>(&mut self, i: usize) {
        let access = self.next_access(i);
        let line = access.addr >> 6;
        {
            let core = &mut self.cores[i];
            // Retire the gap instructions at commit width.
            let total = core.instr_carry + access.gap;
            core.t = core
                .t
                .saturating_add(u64::from(total / self.config.commit_width));
            core.instr_carry = total % self.config.commit_width;
            core.retired = core.retired.saturating_add(u64::from(access.gap) + 1);
            if core.measuring {
                core.meas.instructions = core
                    .meas
                    .instructions
                    .saturating_add(u64::from(access.gap) + 1);
            }
        }
        // Stamp subsequent events (LLC, DRAM, prefetch) with the stepping
        // core's clock; cores advance in time order, so the stream is
        // near-monotone.
        if OBS {
            self.probe.set_cycle(self.cores[i].t);
            self.profiler.set_cycle(self.cores[i].t);
            self.probe.emit_with(|| EventKind::Retire {
                instructions: access.gap + 1,
            });
        }
        if access.is_write {
            self.store(i, line, access.pc);
        } else {
            self.load(i, line, access.pc, access.dependent);
        }
        // Warm-up boundary: start measuring this core; when the last core
        // warms up, zero the shared-LLC statistics so Figure-1-style
        // eviction accounting covers only the measurement region.
        if !self.cores[i].measuring && self.cores[i].retired >= self.config.warmup_instructions {
            let core = &mut self.cores[i];
            core.measuring = true;
            core.meas_start_cycle = core.t;
            self.warmed = self.warmed.saturating_add(1);
            if self.warmed == self.cores.len() {
                self.llc.reset_stats();
            }
        }
    }

    fn load(&mut self, i: usize, line: u64, pc: u64, dependent: bool) {
        if dependent {
            let core = &mut self.cores[i];
            core.t = core.t.max(core.last_load_completion);
        }
        // Take the core's scratch buffer for the duration of the access so
        // prefetch targets survive the `&mut self` walk calls below without
        // a per-access allocation (`Vec` moves are pointer swaps).
        let mut prefetches = std::mem::take(&mut self.cores[i].prefetch_buf);
        self.cores[i]
            .prefetcher
            .observe_into(pc, line, &mut prefetches);
        let r1 = self.cores[i].l1d.read(line);
        let l1_lat = u64::from(self.config.l1d.latency);
        let latency = if r1.hit {
            l1_lat
        } else {
            if let Some(v) = r1.writeback {
                self.l2_writeback(i, v);
            }
            l1_lat + self.walk_below_l1(i, line, true)
        };
        let core = &mut self.cores[i];
        if latency > l1_lat {
            // A real miss occupies an MSHR; stall when the window is full.
            if core.outstanding.len() >= self.config.mlp {
                if let Some(free_at) = core.outstanding.pop_min() {
                    core.t = core.t.max(free_at);
                }
            }
            let completion = core.t + latency;
            core.outstanding.push(completion);
            core.last_load_completion = completion;
        } else {
            core.last_load_completion = core.t + latency;
        }
        // Retire completed misses from the window.
        core.outstanding.retire_through(core.t);
        self.probe.emit_with(|| EventKind::LoadComplete { latency });
        for &p in prefetches.iter() {
            self.prefetch_fill(i, p);
        }
        prefetches.clear();
        self.cores[i].prefetch_buf = prefetches;
    }

    /// Write-allocate store: dirties L1D; a miss issues an RFO that behaves
    /// like a load for the hierarchy and the MSHR window, but the store
    /// itself never stalls retirement (write-buffer semantics).
    fn store(&mut self, i: usize, line: u64, pc: u64) {
        // The L1D prefetcher trains on all demand accesses, stores
        // included — write-heavy streams would otherwise break stride
        // detection.
        let mut prefetches = std::mem::take(&mut self.cores[i].prefetch_buf);
        self.cores[i]
            .prefetcher
            .observe_into(pc, line, &mut prefetches);
        let r1 = self.cores[i].l1d.write(line);
        if !r1.hit {
            if let Some(v) = r1.writeback {
                self.l2_writeback(i, v);
            }
            let latency = self.walk_below_l1(i, line, true);
            let core = &mut self.cores[i];
            if core.outstanding.len() >= self.config.mlp {
                if let Some(free_at) = core.outstanding.pop_min() {
                    core.t = core.t.max(free_at);
                }
            }
            core.outstanding.push(core.t + latency);
        }
        for &p in prefetches.iter() {
            self.prefetch_fill(i, p);
        }
        prefetches.clear();
        self.cores[i].prefetch_buf = prefetches;
    }

    /// L2 → LLC → DRAM walk for a request that missed L1. Returns the
    /// latency beyond the L1 access. `demand` distinguishes demand traffic
    /// (counted in MPKI, waits on in-flight prefetches) from prefetches
    /// (inserted at distant priority, never counted).
    fn walk_below_l1(&mut self, i: usize, line: u64, demand: bool) -> u64 {
        let kind = if demand {
            AccessKind::Read
        } else {
            AccessKind::Prefetch
        };
        // The L2 treats prefetch fills as ordinary fills (normal insertion
        // priority); prefetch-awareness matters at the shared LLC.
        let r2 = self.cores[i].l2.read(line);
        let l2_lat = u64::from(self.config.l2.latency);
        if r2.hit {
            if !demand {
                return l2_lat;
            }
            // Timeliness: a line prefetched but not yet arrived makes this
            // demand a *late-prefetch* miss — it merges with the prefetch
            // and waits out the residual latency.
            let now = self.cores[i].t;
            if let Some(ready_at) = self.cores[i].inflight_prefetch.remove(line) {
                if ready_at > now {
                    self.cores[i].prefetcher.note_late();
                    self.probe
                        .emit_with(|| EventKind::PrefetchLateMerge { line });
                    if self.cores[i].measuring {
                        self.cores[i].meas.l2_misses =
                            self.cores[i].meas.l2_misses.saturating_add(1);
                        self.cores[i].meas.llc_demand_accesses =
                            self.cores[i].meas.llc_demand_accesses.saturating_add(1);
                        self.cores[i].meas.llc_demand_misses =
                            self.cores[i].meas.llc_demand_misses.saturating_add(1);
                        self.cores[i].meas.late_prefetch_merges =
                            self.cores[i].meas.late_prefetch_merges.saturating_add(1);
                    }
                    return (ready_at - now).max(l2_lat);
                }
                self.cores[i].prefetcher.note_timely();
                if self.cores[i].measuring {
                    self.cores[i].meas.timely_prefetch_hits =
                        self.cores[i].meas.timely_prefetch_hits.saturating_add(1);
                }
            }
            return l2_lat;
        }
        self.cores[i].inflight_prefetch.remove(line);
        if let Some(v) = r2.writeback {
            self.llc_writeback(i, v);
        }
        if demand && self.cores[i].measuring {
            self.cores[i].meas.l2_misses = self.cores[i].meas.l2_misses.saturating_add(1);
            self.cores[i].meas.llc_demand_accesses =
                self.cores[i].meas.llc_demand_accesses.saturating_add(1);
        }
        let domain = self.cores[i].domain;
        let llc_lat = u64::from(self.config.llc_latency) + u64::from(self.llc.extra_latency());
        let r3 = {
            let _llc = self.profiler.span(Component::Llc);
            self.llc.access(Request { line, kind, domain })
        };
        let now = self.cores[i].t + l2_lat + llc_lat;
        if !r3.writebacks.is_empty() {
            let _dram = self.profiler.span(Component::Dram);
            for wb in r3.writebacks.iter() {
                self.dram.write(wb, domain, now);
            }
        }
        if r3.is_data_hit() {
            return l2_lat + llc_lat;
        }
        if demand && self.cores[i].measuring {
            self.cores[i].meas.llc_demand_misses =
                self.cores[i].meas.llc_demand_misses.saturating_add(1);
        }
        let _dram = self.profiler.span(Component::Dram);
        l2_lat + llc_lat + self.dram.read(line, domain, now)
    }

    /// A dirty L2 victim written back to the LLC; its own victims go to
    /// DRAM.
    fn llc_writeback(&mut self, i: usize, line: u64) {
        let domain = self.cores[i].domain;
        let r = {
            let _llc = self.profiler.span(Component::Llc);
            self.llc.access(Request::writeback(line, domain))
        };
        let now = self.cores[i].t;
        if !r.writebacks.is_empty() {
            let _dram = self.profiler.span(Component::Dram);
            for wb in r.writebacks.iter() {
                self.dram.write(wb, domain, now);
            }
        }
    }

    /// A dirty L1 victim written back into L2 (allocating); L2 victims
    /// cascade to the LLC.
    fn l2_writeback(&mut self, i: usize, line: u64) {
        let r = self.cores[i].l2.write(line);
        if let Some(v) = r.writeback {
            self.llc_writeback(i, v);
        }
    }

    /// A prefetch fill into L2: exercises the LLC and DRAM (occupying
    /// banks), records the line's arrival time for the timeliness check,
    /// and is excluded from demand MPKI. Lines already in L2 or already in
    /// flight are not refetched.
    fn prefetch_fill(&mut self, i: usize, line: u64) {
        if self.cores[i].l2.probe(line) || self.cores[i].inflight_prefetch.contains(line) {
            return;
        }
        self.probe.emit_with(|| EventKind::PrefetchIssue { line });
        let _prefetch = self.profiler.span(Component::Prefetch);
        let latency = self.walk_below_l1(i, line, false);
        let core = &mut self.cores[i];
        core.inflight_prefetch.insert(line, core.t + latency);
        // Bound the table: drop entries whose data already arrived.
        if core.inflight_prefetch.len() > 32 * 1024 {
            core.inflight_prefetch.retain_ready_after(core.t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_core::{
        MayaCache, MayaConfig, MirageCache, MirageConfig, Policy, SetAssocCache, SetAssocConfig,
    };
    use workloads::mixes::{hetero_mixes, homogeneous};

    fn small_cfg(cores: usize) -> SystemConfig {
        SystemConfig {
            cores,
            ..SystemConfig::eight_core_default().with_instructions(20_000, 50_000)
        }
    }

    fn baseline_llc(lines: usize) -> Box<dyn CacheModel> {
        Box::new(SetAssocCache::new(SetAssocConfig::new(
            lines / 16,
            16,
            Policy::Srrip,
        )))
    }

    #[test]
    fn single_core_run_produces_sane_ipc() {
        let cfg = small_cfg(1);
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("mcf", 1), 1);
        let r = sys.run();
        let ipc = r.cores[0].ipc();
        assert!(ipc > 0.01 && ipc < 4.0, "IPC {ipc} out of range");
        assert!(r.cores[0].mpki() > 1.0, "mcf must be memory-intensive");
    }

    #[test]
    fn llc_fitting_workload_barely_misses() {
        // Needs a long enough run for the (small) working set to warm up.
        let cfg = SystemConfig {
            cores: 1,
            ..SystemConfig::eight_core_default().with_instructions(300_000, 300_000)
        };
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("leela", 1), 1);
        let r = sys.run();
        assert!(
            r.cores[0].mpki() < 3.0,
            "leela MPKI {} should be tiny",
            r.cores[0].mpki()
        );
    }

    #[test]
    fn streaming_workload_has_high_dead_block_fraction() {
        // The 32K-line LLC must fill and start evicting before dead-block
        // accounting says anything.
        let cfg = SystemConfig {
            cores: 1,
            ..SystemConfig::eight_core_default().with_instructions(100_000, 600_000)
        };
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("lbm", 1), 1);
        let r = sys.run();
        let dead = r.dead_block_fraction().expect("lbm must evict");
        assert!(dead > 0.9, "lbm dead fraction {dead} must be ~1");
    }

    #[test]
    fn maya_llc_plugs_in_and_runs() {
        let cfg = small_cfg(2);
        let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(64 * 1024, 3)));
        let mut sys = System::new(cfg, llc, &homogeneous("mcf", 2), 1);
        let r = sys.run();
        assert_eq!(r.llc_name, "maya");
        assert_eq!(r.llc.saes, 0, "no SAE expected in a short run");
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn mirage_llc_plugs_in_and_runs() {
        let cfg = small_cfg(2);
        let llc = Box::new(MirageCache::new(MirageConfig::for_data_entries(
            64 * 1024,
            3,
        )));
        let mut sys = System::new(cfg, llc, &homogeneous("bwaves", 2), 1);
        let r = sys.run();
        assert_eq!(r.llc_name, "mirage");
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn checked_run_audits_maya_and_mirage_without_findings() {
        // run_checked() audits the LLC every 10k records; with 70k records
        // per run this exercises mid-run audits, not just the final one.
        let cfg = small_cfg(1);
        let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(32 * 1024, 5)));
        let mut sys = System::new(cfg.clone(), llc, &homogeneous("mcf", 1), 2);
        let r = sys.run_checked();
        assert!(r.cores[0].ipc() > 0.0);

        let llc = Box::new(MirageCache::new(MirageConfig::for_data_entries(
            32 * 1024,
            5,
        )));
        let mut sys = System::new(cfg, llc, &homogeneous("lbm", 1), 2);
        let r = sys.run_checked();
        assert!(r.cores[0].ipc() > 0.0);
    }

    #[test]
    fn checked_run_matches_unchecked_run_exactly() {
        // Auditing is read-only by contract; the checked mode must not
        // perturb results. Eight heterogeneous cores give the scheduler
        // real choices, so this also pins the observed loop's schedule to
        // the bare one.
        let build = || {
            let cfg = SystemConfig::eight_core_default().with_instructions(5_000, 15_000);
            let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(
                cfg.baseline_llc_lines(),
                7,
            )));
            let mix = hetero_mixes().into_iter().nth(2).expect("mix M3");
            System::new(cfg, llc, &mix, 4)
        };
        let a = build().run();
        let b = build().run_checked();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn identical_seeds_reproduce_results_exactly() {
        let run = || {
            let cfg = small_cfg(1);
            let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("xz", 1), 9);
            sys.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cores[0], b.cores[0]);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    #[should_panic(expected = "configured for")]
    fn core_count_mismatch_panics() {
        let cfg = small_cfg(4);
        System::new(cfg, baseline_llc(1024), &homogeneous("mcf", 2), 1);
    }

    #[test]
    fn pointer_chase_is_slower_than_cached_working_set() {
        let cfg = small_cfg(1);
        let mut chase = System::new(
            cfg.clone(),
            baseline_llc(32 * 1024),
            &homogeneous("mcf", 1),
            1,
        );
        let mut hits = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("leela", 1), 1);
        let slow = chase.run().cores[0].ipc();
        let fast = hits.run().cores[0].ipc();
        assert!(fast > 2.0 * slow, "cache-resident {fast} vs chase {slow}");
    }
}
