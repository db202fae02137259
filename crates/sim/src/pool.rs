//! The campaign worker pool: executes a [`ShardPlan`](crate::ShardPlan) on `std::thread`
//! workers that steal whole shards from a shared queue and stream batched
//! [`ShardResult`]s back over an `mpsc` channel.
//!
//! Workers never share mutable simulator state — each run restores its own
//! machine from the read-only golden checkpoints (or re-executes from
//! scratch when checkpointing is disabled) — so the pool scales linearly
//! until the machine runs out of cores. Determinism is preserved by
//! construction: results are slotted by shard index and the per-fault
//! classification is independent of the checkpoint interval, so any worker
//! count, interleaving or interval assembles the same [`CampaignReport`]:
//!
//! ```
//! use bec_sim::study::{prepare_campaign, run_prepared, StudySpec};
//! use bec_sim::SiteVerdicts;
//! use bec_core::{BecAnalysis, BecOptions};
//! use bec_ir::parse_program;
//! use bec_telemetry::Telemetry;
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 2
//!     slli t0, t0, 1
//!     print t0
//!     exit
//! }
//! "#)?;
//! let verdicts = SiteVerdicts::of(&p, &BecAnalysis::analyze(&p, &BecOptions::paper()));
//! let tel = Telemetry::disabled();
//! let report = |workers| {
//!     let spec = StudySpec { shards: 4, workers, ..StudySpec::default() };
//!     let prep = prepare_campaign("ex", &p, &verdicts, &spec, None, None, &tel).unwrap();
//!     run_prepared("ex", &p, prep, &spec, None, &tel).unwrap().report
//! };
//! assert_eq!(report(1), report(4)); // report bytes never depend on the worker count
//! # Ok::<(), bec_ir::IrError>(())
//! ```
//!
//! The pool has no entry point of its own: [`crate::study::run_prepared`]
//! is the one way to run a campaign.

use crate::bitslice::{batch_eligible, BatchCounters, BatchRunner, Engine, LaneRun};
use crate::runner::Simulator;
use crate::shard::{CampaignReport, FaultOutcome, ShardResult};
use crate::study::{PreparedCampaign, StudySpec};
use bec_telemetry::{Histogram, Telemetry};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Execution metadata of one pool run — everything that must *not* end up
/// in the deterministic report.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Wall-clock time of the pool run.
    pub wall: Duration,
    /// Workers the pool ran with.
    pub workers: usize,
    /// Shards executed by this run (excludes shards taken from a resumed
    /// report).
    pub executed_shards: usize,
    /// Shards reused from the resumed report.
    pub resumed_shards: usize,
    /// Individual fault runs that early-exited by converging with the
    /// golden run (always 0 with a disabled checkpoint log). Counted per
    /// fault on both engines — a bitsliced batch with 32 converged lanes
    /// contributes 32 — so scalar and bitsliced campaigns report the same
    /// number.
    pub early_exits: u64,
    /// Bitsliced batches executed (0 on the scalar engine).
    pub batches: u64,
    /// Faults executed as bitsliced lanes (0 on the scalar engine).
    pub batched_lanes: u64,
    /// Lanes forked out to a scalar tail on divergence (0 on the scalar
    /// engine).
    pub forked_lanes: u64,
}

impl PoolStats {
    /// Publishes the execution metadata onto the metric registry. The
    /// wall time goes in as a (nondeterministic) timing; everything else
    /// is deterministic for a fixed plan and checkpoint interval.
    pub fn record(&self, tel: &Telemetry) {
        tel.time_ms("campaign.wall_ms", self.wall.as_secs_f64() * 1e3);
        tel.gauge("pool.workers", self.workers as u64);
        tel.gauge("pool.executed_shards", self.executed_shards as u64);
        tel.gauge("pool.resumed_shards", self.resumed_shards as u64);
    }
}

/// The pool body behind [`crate::study::run_prepared`]: fills `report`'s
/// pending slots on `spec.workers` threads with `spec.engine`.
///
/// Records spans (`campaign`, one `shard` span per executed shard on its
/// worker's timeline), logical `campaign.*` counters/histograms merged
/// worker-count-independently, `pool.*` gauges and a throttled live
/// progress meter on stderr. The engine is a wall-clock lever only: the
/// bitsliced engine silently falls back to the scalar one when the
/// campaign cannot batch (disabled checkpoints, an incomplete or
/// over-budget golden run, or more registers than lanes).
pub(crate) fn run(
    sim: &Simulator<'_>,
    prep: &PreparedCampaign,
    mut report: CampaignReport,
    spec: &StudySpec,
    tel: &Telemetry,
) -> (CampaignReport, PoolStats) {
    let started = Instant::now();
    let PreparedCampaign { golden, ckpts, plan, .. } = prep;
    let workers = spec.workers.max(1);
    let label = report.program.clone();
    let label = label.as_str();

    let pending = report.pending_shards();
    let resumed_shards = plan.shard_count() - pending.len();
    let planned_runs: u64 = pending.iter().map(|&s| plan.shard(s).len() as u64).sum();
    let next = AtomicUsize::new(0);
    let early = AtomicU64::new(0);
    let batches = AtomicU64::new(0);
    let batched_lanes = AtomicU64::new(0);
    let forked_lanes = AtomicU64::new(0);
    // One decision for the whole pool: batching requires exactly the
    // conditions the scalar convergence early-exit needs.
    let use_batch = spec.engine == Engine::Bitsliced && batch_eligible(sim, ckpts);
    let (tx, rx) = std::sync::mpsc::channel::<ShardResult>();

    let _span = tel
        .span("campaign")
        .arg("label", label)
        .arg("shards", plan.shard_count())
        .arg("runs", planned_runs);
    tel.gauge("pool.pending_shards", pending.len() as u64);
    tel.gauge("campaign.fault_space", plan.fault_space());
    tel.gauge("campaign.golden_cycles", golden.cycles());
    let mut meter = tel.meter(&format!("campaign {label}"), planned_runs);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let early = &early;
            let pending = &pending;
            let batches = &batches;
            let batched_lanes = &batched_lanes;
            let forked_lanes = &forked_lanes;
            scope.spawn(move || {
                // One scratch machine per worker, reused across all runs —
                // a scalar injector or a bitsliced batch runner.
                let mut injector = (!use_batch).then(|| sim.injector());
                let mut batcher = use_batch.then(|| BatchRunner::new(sim));
                let mut lane_runs: Vec<LaneRun> = Vec::new();
                let mut counters = BatchCounters::default();
                // Telemetry is aggregated locally and merged once per
                // worker: the merge is associative and commutative, so the
                // registry totals are independent of the worker count.
                let tid = w as u32 + 1;
                let mut run_cycles = Histogram::default();
                let mut restore_distance = Histogram::default();
                let mut exits = 0u64;
                let mut saved = 0u64;
                loop {
                    // Steal the next unclaimed shard.
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&shard) = pending.get(slot) else { break };
                    let faults = plan.shard(shard);
                    let _shard_span =
                        tel.span_on(tid, "shard").arg("shard", shard).arg("runs", faults.len());
                    let mut converged = 0u64;
                    // Per-fault accounting is engine-independent: a lane
                    // observes exactly what its scalar run would have.
                    let mut observe = |fault: &crate::shard::SitedFault, run: &LaneRun| {
                        run_cycles.observe(run.simulated_cycles);
                        restore_distance.observe(fault.spec.cycle.saturating_sub(run.restored_at));
                        if run.converged_at.is_some() {
                            converged += 1;
                            saved += golden.cycles().saturating_sub(run.simulated_cycles);
                        }
                        FaultOutcome { fault: *fault, class: run.class }
                    };
                    let outcomes: Vec<FaultOutcome> = if let Some(b) = batcher.as_mut() {
                        b.run_shard(golden, ckpts, faults, &mut counters, &mut lane_runs);
                        faults.iter().zip(&lane_runs).map(|(f, r)| observe(f, r)).collect()
                    } else {
                        let injector = injector.as_mut().expect("scalar worker");
                        faults
                            .iter()
                            .map(|fault| {
                                let run = injector.run_fault(golden, ckpts, fault.spec);
                                observe(
                                    fault,
                                    &LaneRun {
                                        class: run.class,
                                        converged_at: run.converged_at,
                                        simulated_cycles: run.simulated_cycles,
                                        restored_at: run.restored_at,
                                    },
                                )
                            })
                            .collect()
                    };
                    exits += converged;
                    early.fetch_add(converged, Ordering::Relaxed);
                    // One batched send per shard; a dropped receiver means
                    // the collector is gone and the worker just stops.
                    if tx.send(ShardResult { shard: shard as u32, outcomes }).is_err() {
                        break;
                    }
                }
                tel.merge_hist("campaign.run_cycles", &run_cycles);
                tel.merge_hist("campaign.restore_distance", &restore_distance);
                tel.add("campaign.runs", run_cycles.count);
                tel.add("campaign.simulated_cycles", run_cycles.sum);
                tel.add("campaign.early_exits", exits);
                tel.add("campaign.saved_cycles", saved);
                if use_batch {
                    tel.merge_hist("campaign.lane_occupancy", &counters.occupancy);
                    tel.add("campaign.batches", counters.batches);
                    tel.add("campaign.batched_lanes", counters.batched_lanes);
                    tel.add("campaign.forked_lanes", counters.forked_lanes);
                    tel.add("campaign.tail_cycles", counters.tail_cycles);
                    tel.add("campaign.replay_cycles", counters.replay_cycles);
                    batches.fetch_add(counters.batches, Ordering::Relaxed);
                    batched_lanes.fetch_add(counters.batched_lanes, Ordering::Relaxed);
                    forked_lanes.fetch_add(counters.forked_lanes, Ordering::Relaxed);
                }
            });
        }
        drop(tx);

        let mut done_runs = 0u64;
        for result in rx {
            let slot = result.shard as usize;
            debug_assert!(report.shards[slot].is_none(), "shard {slot} executed twice");
            let runs = result.outcomes.len();
            done_runs += runs as u64;
            report.shards[slot] = Some(result);
            meter.update(done_runs, &[("early_exits", early.load(Ordering::Relaxed))]);
        }
    });

    // Outcome tallies cover the whole (possibly resumed) report, matching
    // what the CLI prints — deterministic for a fixed plan.
    for (i, &count) in report.outcome_counts().iter().enumerate() {
        tel.add(&format!("campaign.outcome.{}", crate::FaultClass::ALL[i].name()), count);
    }

    let stats = PoolStats {
        wall: started.elapsed(),
        workers,
        executed_shards: pending.len(),
        resumed_shards,
        early_exits: early.load(Ordering::Relaxed),
        batches: batches.load(Ordering::Relaxed),
        batched_lanes: batched_lanes.load(Ordering::Relaxed),
        forked_lanes: forked_lanes.load(Ordering::Relaxed),
    };
    stats.record(tel);
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointLog;
    use crate::shard::{site_fault_space, CampaignSpec, ShardPlan};
    use crate::study::{run_prepared, CampaignRun};
    use bec_core::{BecAnalysis, BecOptions};
    use bec_ir::{parse_program, Program};

    fn toy() -> Program {
        parse_program(
            r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r1, 6
    j loop
loop:
    andi r2, r1, 1
    add  r0, r0, r2
    addi r1, r1, -1
    bnez r1, loop
exit:
    ret r0
}
"#,
        )
        .unwrap()
    }

    /// A hand-built prepared campaign over `p`: checkpoints every
    /// `interval` cycles (0 = from-scratch), the simulator's default
    /// budget, and the full classified fault space under `cspec`.
    fn prepared(p: &Program, cspec: CampaignSpec, interval: u64) -> PreparedCampaign {
        let bec = BecAnalysis::analyze(p, &BecOptions::paper());
        let sim = Simulator::new(p);
        let (golden, ckpts) = match interval {
            0 => (sim.run_golden(), CheckpointLog::disabled()),
            n => sim.run_golden_checkpointed(n),
        };
        let plan = ShardPlan::build(site_fault_space(p, &bec, &golden), cspec);
        PreparedCampaign { golden, ckpts, budget: sim.limits().max_cycles, plan }
    }

    fn run_on(
        p: &Program,
        prep: &PreparedCampaign,
        workers: usize,
        resume: Option<CampaignReport>,
        label: &str,
        tel: &Telemetry,
    ) -> Result<CampaignRun, String> {
        let spec = StudySpec { workers, ..StudySpec::default() };
        run_prepared(label, p, prep.clone(), &spec, resume, tel)
    }

    #[test]
    fn pool_matches_sequential_execution() {
        let p = toy();
        let prep = prepared(&p, CampaignSpec::exhaustive(6), 0);
        let tel = Telemetry::disabled();
        let seq = run_on(&p, &prep, 1, None, "toy", &tel).unwrap();
        let par = run_on(&p, &prep, 4, None, "toy", &tel).unwrap();
        assert_eq!(seq.report, par.report);
        assert!(seq.report.is_complete());
        assert_eq!(par.stats.executed_shards, 6);
        assert_eq!(seq.report.runs(), prep.plan.runs() as u64);
    }

    #[test]
    fn resume_runs_only_missing_shards() {
        let p = toy();
        let prep = prepared(&p, CampaignSpec::exhaustive(5), 0);
        let tel = Telemetry::disabled();
        let full = run_on(&p, &prep, 2, None, "toy", &tel).unwrap().report;
        let mut partial = full.clone();
        partial.shards[1] = None;
        partial.shards[4] = None;
        let resumed = run_on(&p, &prep, 3, Some(partial), "toy", &tel).unwrap();
        assert_eq!(resumed.report, full);
        assert_eq!(resumed.stats.executed_shards, 2);
        assert_eq!(resumed.stats.resumed_shards, 3);
    }

    #[test]
    fn telemetry_totals_are_worker_count_independent() {
        let p = toy();
        let prep = prepared(&p, CampaignSpec::exhaustive(6), 4);

        let snapshots: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let tel = Telemetry::enabled();
                let run = run_on(&p, &prep, w, None, "toy", &tel).unwrap();
                let snap = tel.snapshot();
                // The registry agrees with the report and the pool stats.
                assert_eq!(snap.counter("campaign.runs"), Some(run.report.runs()));
                assert_eq!(snap.counter("campaign.early_exits"), Some(run.stats.early_exits));
                assert_eq!(snap.gauge("pool.workers"), Some(w as u64));
                snap
            })
            .collect();

        // Every logical (worker-count-independent) metric must be
        // byte-identical across worker counts; only the `pool.workers`
        // gauge and the wall-time metric may differ.
        for name in [
            "campaign.runs",
            "campaign.early_exits",
            "campaign.simulated_cycles",
            "campaign.saved_cycles",
            "campaign.batches",
            "campaign.forked_lanes",
            "campaign.tail_cycles",
            "campaign.replay_cycles",
            "campaign.outcome.benign",
            "campaign.outcome.sdc",
            "campaign.outcome.crash",
            "campaign.outcome.hang",
            "campaign.fault_space",
            "campaign.golden_cycles",
            "pool.pending_shards",
        ] {
            let values: Vec<_> = snapshots.iter().map(|s| s.metric(name).cloned()).collect();
            assert!(values[0].is_some(), "metric {name} missing");
            assert!(values.windows(2).all(|w| w[0] == w[1]), "{name} varies: {values:?}");
        }
        let hists: Vec<_> =
            snapshots.iter().map(|s| s.histogram("campaign.run_cycles").cloned()).collect();
        assert!(hists[0].is_some());
        assert!(hists.windows(2).all(|w| w[0] == w[1]), "run_cycles histogram varies");
        // With checkpointing on, some runs restore mid-trace; some lanes
        // diverge at the loop branch and finish in a forked scalar tail.
        assert!(snapshots[0].histogram("campaign.restore_distance").unwrap().count > 0);
        assert!(snapshots[0].counter("campaign.tail_cycles").unwrap() > 0);
        assert!(snapshots[0].counter("campaign.replay_cycles").unwrap() > 0);
    }

    #[test]
    fn resume_rejects_mismatched_reports() {
        let p = toy();
        let prep = prepared(&p, CampaignSpec::exhaustive(4), 0);
        let tel = Telemetry::disabled();
        let full = run_on(&p, &prep, 2, None, "toy", &tel).unwrap().report;

        let err = run_on(&p, &prep, 2, Some(full.clone()), "other", &tel).err().unwrap();
        assert!(err.contains("resume report is for"), "{err}");

        let other = prepared(&p, CampaignSpec::sampled(1, 10, 4), 0);
        let err = run_on(&p, &other, 2, Some(full), "toy", &tel).err().unwrap();
        assert!(err.contains("disagrees"), "{err}");
    }
}
