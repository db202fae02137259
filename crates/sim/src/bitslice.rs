//! The bitsliced fault engine: up to 64 single-bit faults that share one
//! injection cycle execute as *lanes* of a single shared golden replay.
//!
//! Most faults in an exhaustive campaign differ only in their register and
//! bit index — they restore the same checkpoint, replay the same golden
//! prefix, and follow the golden control path until (if ever) their
//! flipped bit reaches a branch condition, an effective address, or an
//! observable output. The batch runner executes that shared path **once**:
//! the scratch machine replays the golden trace while each lane carries
//! only its *taint* — the set of registers whose lane value differs from
//! the golden value, plus those values. Arithmetic steps recompute tainted
//! lanes against the golden sources in registers; everything else (control
//! flow, memory, trace hash) is shared.
//!
//! **Soundness: a lane leaves the batch before its machine state can
//! differ from the modeled scalar run.** The batch only ever executes
//! steps whose machine effect is identical for every resident lane,
//! modulo the per-lane register values the taint tracks exactly. The
//! moment a lane's *would-be* behavior diverges in a way the taint cannot
//! express — a branch condition flips, a *store* address or value differs
//! — the lane is *forked*: its full scalar state (golden replay state with
//! its tainted registers patched in) is handed to the scalar interpreter
//! (`exec::run_tail`), which executes the tail exactly as the
//! scalar engine would have from the same cycle. Divergent addresses that
//! are misaligned or out of bounds retire the lane directly as a crash —
//! the same trap the scalar run takes on that instruction. Two divergences
//! *can* stay batched, because they mutate no shared state: a divergent
//! `print` (flagged SDC, output patch recorded) and a divergent in-bounds
//! *load* — a load writes nothing but `rd`, and the shared memory *is* the
//! lane's memory (any divergent store forks), so the lane just reads its
//! own value per-lane. Both permanently mark the lane's trace hash as
//! diverged, which excludes it from Benign convergence — exactly the
//! scalar engine's hash-equality convergence requirement — and bounds its
//! verdict at Deviation (Sdc once outputs differ). Per-lane convergence
//! applies the scalar engine's own per-bit dynamic-liveness check at every
//! aligned checkpoint cycle, so verdicts, early-exit counts and per-fault
//! cycle accounting are identical to the scalar engine's —
//! `tests/bitslice_equivalence.rs` pins report byte-identity across
//! engines and worker counts.

use crate::checkpoint::CheckpointLog;
use crate::exec::{run_tail, step_inst, ExecState, FlatStep, StepResult};
use crate::machine::Machine;
use crate::runner::{GoldenRun, RunResult, Simulator};
use crate::shard::SitedFault;
use crate::trace::FaultClass;
use crate::ExecOutcome;
use bec_ir::semantics::{eval_alu, eval_cond};
use bec_ir::{AluOp, Inst, Reg};
use bec_telemetry::Histogram;
use std::collections::HashMap;

/// Lanes per batch: one per bit of the `u64` taint masks.
const LANES: usize = 64;

/// Evaluates `$body` with `$f` bound to the evaluator of ALU operation
/// `$op`, expanded once per operation: the per-lane loops inside `$body`
/// then run a fixed operation instead of dispatching on `$op` per lane.
macro_rules! per_alu_op {
    ($cfg:expr, $op:expr, |$f:ident| $body:expr) => {
        per_alu_op!(@expand $cfg, $op, $f, $body;
            Add Sub And Or Xor Sll Srl Sra Slt Sltu Mul Mulh Mulhu Div Divu Rem Remu)
    };
    (@expand $cfg:expr, $op:expr, $f:ident, $body:expr; $($name:ident)*) => {
        match $op {
            $(AluOp::$name => {
                let $f = |a: u64, b: u64| eval_alu($cfg, AluOp::$name, a, b);
                $body
            })*
        }
    };
}

/// Which per-fault execution engine the campaign pool runs. Never changes
/// a report byte — the bitsliced engine is a wall-clock lever, exactly
/// like the checkpoint interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// One scalar checkpointed run per fault (the PR 6 engine).
    Scalar,
    /// Faults sharing an injection cycle batched into 64-bit lanes.
    #[default]
    Bitsliced,
}

impl Engine {
    /// The CLI / metrics name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Bitsliced => "bitsliced",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "scalar" => Some(Engine::Scalar),
            "bitsliced" => Some(Engine::Bitsliced),
            _ => None,
        }
    }
}

/// Per-fault outcome of the bitsliced engine — the same fields of
/// [`crate::FaultRun`] the pool's telemetry observes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneRun {
    pub class: FaultClass,
    pub converged_at: Option<u64>,
    pub simulated_cycles: u64,
    pub restored_at: u64,
}

/// Batch-level counters a worker accumulates locally and merges into the
/// telemetry registry once (worker-count independent, like every other
/// `campaign.*` metric).
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchCounters {
    /// Batches executed.
    pub batches: u64,
    /// Lanes executed inside batches (= faults routed through the
    /// bitsliced engine).
    pub batched_lanes: u64,
    /// Lanes forked out to a scalar tail on divergence.
    pub forked_lanes: u64,
    /// Cycles the forked scalar tails executed, from the fork to their
    /// terminal outcome.
    pub tail_cycles: u64,
    /// Cycles the shared batch replays executed, from the restored
    /// checkpoint to the cycle the batch emptied.
    pub replay_cycles: u64,
    /// Lanes-per-batch distribution.
    pub occupancy: Histogram,
}

/// Whether shards of this campaign can run batched: batching replays the
/// golden trace and proves per-lane convergence against it, which is only
/// meaningful under exactly the conditions the scalar engine's early-exit
/// requires (enabled checkpoints; a completed golden run that fits the
/// fault-run budget). Exotic machines with more registers than taint-mask
/// bits fall back to the scalar engine.
pub(crate) fn batch_eligible(sim: &Simulator<'_>, ckpts: &CheckpointLog) -> bool {
    let max_cycles = sim.limits.max_cycles;
    let step_limit = max_cycles.saturating_mul(2) + 1024;
    ckpts.is_enabled()
        && ckpts.completed
        && ckpts.final_cycles <= max_cycles
        && ckpts.final_steps < step_limit
        && sim.program().config.num_regs as usize <= LANES
}

/// The reusable batch execution context of one worker: one scratch
/// machine, the dirty-word undo log, and the lane state arrays, reused
/// across every batch the worker runs.
pub(crate) struct BatchRunner<'p, 's> {
    sim: &'s Simulator<'p>,
    machine: Machine,
    initial_regs: Vec<u64>,
    dirty: Vec<(u32, u32)>,
    /// `taint[r]` bit L set ⇔ lane L's value of register `r` differs from
    /// the golden value currently in the machine.
    taint: Vec<u64>,
    /// Bit `r` set ⇔ `taint[r] != 0` (fast iteration over tainted regs).
    tainted_regs: u64,
    /// Lane values, `vals[r * LANES + lane]`, valid iff the taint bit is
    /// set. Always truncated to xlen.
    vals: Vec<u64>,
    /// Register-file snapshot scratch used around lane forks.
    reg_snap: Vec<u64>,
    /// `(output index, lane, value)` patches of SDC-flagged lanes: outputs
    /// whose lane value differs from the golden value printed there.
    out_patches: Vec<(u32, u8, u64)>,
    /// Lanes of the current `Load` whose effective address diverged but
    /// stayed batched (their loaded values wait in `lane_results`).
    load_divergent: u64,
    /// Per-lane results of the instruction being replayed, valid for the
    /// lanes its taint update visits.
    lane_results: [u64; LANES],
}

impl<'p, 's> BatchRunner<'p, 's> {
    pub(crate) fn new(sim: &'s Simulator<'p>) -> BatchRunner<'p, 's> {
        let machine = Machine::new(sim.program());
        let nregs = machine.regs().len();
        BatchRunner {
            sim,
            initial_regs: machine.regs().to_vec(),
            machine,
            dirty: Vec::new(),
            taint: vec![0; nregs],
            tainted_regs: 0,
            vals: vec![0; nregs * LANES],
            reg_snap: vec![0; nregs],
            out_patches: Vec::new(),
            load_divergent: 0,
            lane_results: [0; LANES],
        }
    }

    /// Runs every fault of one shard through the batch engine, writing one
    /// [`LaneRun`] per fault in shard order. Faults are grouped by
    /// injection cycle in first-appearance order — lanes of one batch may
    /// fault different registers — and each group is split into chunks of
    /// at most [`LANES`] lanes.
    pub(crate) fn run_shard(
        &mut self,
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
        faults: &[SitedFault],
        counters: &mut BatchCounters,
        out: &mut Vec<LaneRun>,
    ) {
        out.clear();
        out.resize(
            faults.len(),
            LaneRun {
                class: FaultClass::Benign,
                converged_at: None,
                simulated_cycles: 0,
                restored_at: 0,
            },
        );
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<(Reg, u32, u32)>> = HashMap::new();
        for (i, f) in faults.iter().enumerate() {
            groups
                .entry(f.spec.cycle)
                .or_insert_with(|| {
                    order.push(f.spec.cycle);
                    Vec::new()
                })
                .push((f.spec.reg, f.spec.bit, i as u32));
        }
        for cycle in order {
            let lanes = &groups[&cycle];
            for chunk in lanes.chunks(LANES) {
                counters.batches += 1;
                counters.batched_lanes += chunk.len() as u64;
                counters.occupancy.observe(chunk.len() as u64);
                self.run_batch(golden, ckpts, cycle, chunk, counters, out);
            }
        }
    }

    /// Bits of `taint[r]`, tolerating the hardwired zero register (whose
    /// taint is never set).
    fn taint_of(&self, r: Reg) -> u64 {
        self.taint[r.index() as usize]
    }

    /// Lane L's value of `r`, given the golden value in the machine.
    fn lane_value(&self, r: Reg, lane: usize, golden: u64) -> u64 {
        if self.taint_of(r) >> lane & 1 != 0 {
            self.vals[r.index() as usize * LANES + lane]
        } else {
            golden
        }
    }

    /// Replaces the taint of `rd` with `mask` (callers store the lane
    /// values first). Writes to the zero register vanish, so its taint
    /// stays empty.
    fn set_taint(&mut self, rd: Reg, mask: u64) {
        if self.machine.config().is_zero_reg(rd) {
            return;
        }
        let i = rd.index() as usize;
        self.taint[i] = mask;
        if mask == 0 {
            self.tainted_regs &= !(1u64 << i);
        } else {
            self.tainted_regs |= 1u64 << i;
        }
    }

    /// Removes retired lanes from every taint mask.
    fn clear_lanes(&mut self, lanes: u64) {
        let mut t = self.tainted_regs;
        while t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            self.taint[r] &= !lanes;
            if self.taint[r] == 0 {
                self.tainted_regs &= !(1u64 << r);
            }
        }
    }

    /// Forks lane `lane` out of the batch at the boundary state `st`: the
    /// lane's scalar state is materialized on the shared machine, its tail
    /// runs to a terminal outcome through the scalar interpreter, and the
    /// machine is restored for the replay to continue. The lane's bit in
    /// `sdc` tells whether it already printed a divergent value; in
    /// `hash_div` whether its trace diverged at all (divergent print or
    /// load) — in either case the replayed hash is the golden one, not the
    /// lane's own, so classification must not trust it.
    #[allow(clippy::too_many_arguments)]
    fn fork_lane(
        &mut self,
        golden: &GoldenRun,
        st: &ExecState,
        lane: usize,
        sdc: u64,
        hash_div: u64,
        restored_at: u64,
        counters: &mut BatchCounters,
    ) -> LaneRun {
        let sdc = sdc >> lane & 1 != 0;
        let diverged = hash_div >> lane & 1 != 0;
        let mark = self.dirty.len();
        self.reg_snap.copy_from_slice(self.machine.regs());
        let mut t = self.tainted_regs;
        while t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            if self.taint[r] >> lane & 1 != 0 {
                self.machine.write(Reg::phys(r as u32), self.vals[r * LANES + lane]);
            }
        }
        let mut outputs = st.outputs.clone();
        if sdc {
            for &(idx, l, v) in &self.out_patches {
                if l as usize == lane {
                    outputs[idx as usize] = v;
                }
            }
        }
        let state = ExecState {
            hash: st.hash,
            outputs,
            cycle: st.cycle,
            // The scalar loop-top increment reproduces this boundary's
            // step count exactly.
            steps: st.steps - 1,
            func: st.func,
            pc: st.pc,
            stack: st.stack.clone(),
            mem_digest: st.mem_digest,
        };
        let raw = run_tail(
            &self.sim.flat,
            self.sim.limits.max_cycles,
            state,
            &mut self.machine,
            &mut self.dirty,
        );
        counters.forked_lanes += 1;
        counters.tail_cycles += raw.cycles - st.cycle;
        // Undo the tail: pop its dirty words in reverse and restore the
        // replay's register file, leaving the shared state exactly at the
        // boundary again.
        while self.dirty.len() > mark {
            let (w, old) = self.dirty.pop().expect("watermarked");
            self.machine.memory.set_word(w, old);
        }
        self.machine.restore_regs(&self.reg_snap);
        let class = if sdc || diverged {
            // The tail ran with the golden-prefix hash, not the lane's own
            // (the divergent print/load already changed it), so classify
            // from the outcome and the outputs alone: a completed run
            // cannot be Benign (its trace differs), and is a Deviation
            // exactly when its outputs still match the golden run's (never
            // the case once a divergent print was emitted).
            match raw.outcome {
                ExecOutcome::Crashed(_) => FaultClass::Crash,
                ExecOutcome::Timeout => FaultClass::Hang,
                ExecOutcome::Completed => {
                    if raw.outputs == golden.result.outputs {
                        FaultClass::Deviation
                    } else {
                        FaultClass::Sdc
                    }
                }
            }
        } else {
            let result = RunResult {
                outcome: raw.outcome,
                outputs: raw.outputs,
                cycles: raw.cycles,
                hash: raw.hash,
            };
            result.classify(&golden.result)
        };
        LaneRun {
            class,
            converged_at: None,
            simulated_cycles: raw.cycles.saturating_sub(restored_at),
            restored_at,
        }
    }

    /// Runs one batch: all `lanes` share the injection cycle and differ in
    /// `(register, bit, shard slot)`.
    fn run_batch(
        &mut self,
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
        inj_cycle: u64,
        lanes: &[(Reg, u32, u32)],
        counters: &mut BatchCounters,
        out: &mut [LaneRun],
    ) {
        let cfg = *self.machine.config();
        let max_cycles = self.sim.limits.max_cycles;
        let step_limit = max_cycles.saturating_mul(2) + 1024;
        let idx = ckpts.nearest_at_or_before(inj_cycle);
        let restored_at = ckpts.checkpoints[idx].cycle;
        let mut st =
            ExecState::restore(ckpts, idx, golden.outputs(), &mut self.machine, &mut self.dirty);
        // Lanes can only converge strictly after the injection cycle.
        let mut converge_at = ckpts.after(inj_cycle);
        // The current function, held across steps (replaced on call/return).
        let flat = &self.sim.flat;
        let mut func = &flat.funcs[st.func as usize];
        debug_assert_eq!(self.tainted_regs, 0, "previous batch fully retired");
        self.out_patches.clear();

        let all: u64 = if lanes.len() == LANES { u64::MAX } else { (1u64 << lanes.len()) - 1 };
        let mut active = all;
        // Lanes whose observable outputs already diverged (tainted print):
        // still batched, but excluded from convergence and classified SDC
        // at retirement.
        let mut sdc = 0u64;
        // Lanes whose trace hash diverged (divergent print or load
        // address): still batched — their machine state is tracked exactly
        // — but permanently out of the Benign convergence set, mirroring
        // the scalar engine's hash-equality convergence requirement, and
        // at best a Deviation at retirement.
        let mut hash_div = 0u64;
        let retire = |out: &mut [LaneRun], lanes_mask: u64, run: LaneRun| {
            let mut m = lanes_mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                out[lanes[lane].2 as usize] = run;
            }
        };

        'replay: loop {
            st.steps += 1;
            assert!(
                st.cycle < max_cycles && st.steps < step_limit,
                "golden replay exceeded the budget it was recorded under"
            );
            let step = &func.steps[st.pc as usize];
            if let FlatStep::Goto { target } = step {
                st.pc = *target;
                continue;
            }

            // Cycle boundary. Per-lane convergence first, exactly like the
            // scalar engine: strictly after the injection cycle, at
            // checkpoint-aligned cycles only. All non-register state of a
            // resident lane equals the golden replay's by construction, so
            // the check reduces to the per-bit register comparison.
            if let Some(ck) = converge_at.at(st.cycle) {
                let mut ok = active & !sdc & !hash_div;
                let mut t = self.tainted_regs;
                while ok != 0 && t != 0 {
                    let r = t.trailing_zeros() as usize;
                    t &= t - 1;
                    let live = ck.live_bits[r];
                    let g = self.machine.regs()[r];
                    let mut m = self.taint[r] & ok;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if (self.vals[r * LANES + lane] ^ g) & live != 0 {
                            ok &= !(1u64 << lane);
                        }
                    }
                }
                if ok != 0 {
                    retire(
                        out,
                        ok,
                        LaneRun {
                            class: FaultClass::Benign,
                            converged_at: Some(st.cycle),
                            simulated_cycles: st.cycle - restored_at,
                            restored_at,
                        },
                    );
                    active &= !ok;
                    self.clear_lanes(ok);
                    if active == 0 {
                        break 'replay;
                    }
                }
            }

            // Fault injection on the boundary, mirroring `Machine::flip`:
            // flips into the zero register or past xlen are physically
            // impossible and leave the lane clean. Lanes may fault
            // different registers; a flipped bit always differs from the
            // golden value, so the taint bit is always set.
            if st.cycle == inj_cycle {
                for (lane, &(reg, bit, _)) in lanes.iter().enumerate() {
                    if cfg.is_zero_reg(reg) || bit >= cfg.xlen {
                        continue;
                    }
                    let i = reg.index() as usize;
                    self.vals[i * LANES + lane] = self.machine.read(reg) ^ (1u64 << bit);
                    self.taint[i] |= 1u64 << lane;
                    self.tainted_regs |= 1u64 << i;
                }
            }

            // Divergence detection, *before* the shared execution mutates
            // anything: a diverging lane's scalar state is exactly this
            // boundary state, so it forks (or retires) here and the shared
            // step then executes the golden behavior for the rest.
            match step {
                FlatStep::Goto { .. } => unreachable!("handled above"),
                FlatStep::Exit { .. } => {
                    // Every resident lane completes exactly like the golden
                    // run: divergent outputs make it an SDC, a divergent
                    // trace with intact outputs a Deviation.
                    let simulated = st.cycle + 1 - restored_at;
                    let done = |class| LaneRun {
                        class,
                        converged_at: None,
                        simulated_cycles: simulated,
                        restored_at,
                    };
                    retire(out, active & !(sdc | hash_div), done(FaultClass::Benign));
                    retire(out, active & hash_div & !sdc, done(FaultClass::Deviation));
                    retire(out, active & sdc, done(FaultClass::Sdc));
                    break 'replay;
                }
                FlatStep::Ret { reads, .. } if st.stack.is_empty() => {
                    // Entry return: the read registers become outputs, so a
                    // lane with any of them tainted emits divergent output;
                    // a trace-diverged lane with intact outputs deviates.
                    let mut bad = sdc;
                    for r in *reads {
                        bad |= self.taint_of(*r);
                    }
                    let simulated = st.cycle + 1 - restored_at;
                    let done = |class| LaneRun {
                        class,
                        converged_at: None,
                        simulated_cycles: simulated,
                        restored_at,
                    };
                    retire(out, active & !(bad | hash_div), done(FaultClass::Benign));
                    retire(out, active & hash_div & !bad, done(FaultClass::Deviation));
                    retire(out, active & bad, done(FaultClass::Sdc));
                    break 'replay;
                }
                FlatStep::Ret { .. } => {
                    // Non-entry return: the golden RA holds the frame's
                    // token, so a tainted RA *is* a wild return.
                    if cfg.num_regs == 32 {
                        let bad = self.taint_of(Reg::RA) & active;
                        if bad != 0 {
                            retire(
                                out,
                                bad,
                                LaneRun {
                                    class: FaultClass::Crash,
                                    converged_at: None,
                                    simulated_cycles: st.cycle + 1 - restored_at,
                                    restored_at,
                                },
                            );
                            active &= !bad;
                            self.clear_lanes(bad);
                            if active == 0 {
                                break 'replay;
                            }
                        }
                    }
                }
                FlatStep::Branch { cond, rs1, rs2, .. } => {
                    let a_g = self.machine.read(*rs1);
                    let b_g = rs2.map(|r| self.machine.read(r)).unwrap_or(0);
                    let taken_g = eval_cond(&cfg, *cond, a_g, b_g);
                    let mut m =
                        (self.taint_of(*rs1) | rs2.map(|r| self.taint_of(r)).unwrap_or(0)) & active;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let a = self.lane_value(*rs1, lane, a_g);
                        let b = rs2.map(|r| self.lane_value(r, lane, b_g)).unwrap_or(0);
                        if eval_cond(&cfg, *cond, a, b) != taken_g {
                            let run = self.fork_lane(
                                golden,
                                &st,
                                lane,
                                sdc,
                                hash_div,
                                restored_at,
                                counters,
                            );
                            out[lanes[lane].2 as usize] = run;
                            active &= !(1u64 << lane);
                        }
                    }
                    self.clear_lanes(!active);
                    if active == 0 {
                        break 'replay;
                    }
                }
                FlatStep::Inst { inst, .. } => {
                    if !self.detect_inst(
                        golden,
                        inst,
                        &st,
                        &mut active,
                        &mut sdc,
                        &mut hash_div,
                        restored_at,
                        counters,
                        lanes,
                        out,
                    ) {
                        break 'replay;
                    }
                }
                FlatStep::Call { .. } | FlatStep::La { .. } => {}
            }

            // Shared golden execution of the step — the scalar
            // interpreter's own code wherever possible, so hash, outputs,
            // memory digest and dirty accounting stay bit-identical.
            let point = step.point();
            st.hash.update((st.func as u64) << 32 | point.0 as u64);
            st.cycle += 1;
            match step {
                FlatStep::Goto { .. } | FlatStep::Exit { .. } => unreachable!("handled above"),
                FlatStep::Inst { inst, .. } => {
                    self.exec_inst(inst, &mut st);
                }
                FlatStep::La { rd, addr, .. } => {
                    self.machine.write(*rd, *addr);
                    self.set_taint(*rd, 0);
                    st.pc += 1;
                }
                FlatStep::Call { callee, .. } => {
                    // The golden run cannot overflow the stack (it
                    // completed), and the token only depends on shared
                    // state, so every lane's RA becomes the same token.
                    debug_assert!(st.stack.len() < 512, "golden replay cannot overflow");
                    let token =
                        cfg.truncate(0x4000_0000 ^ (st.stack.len() as u64) << 16 ^ point.0 as u64);
                    self.machine.write(Reg::RA, token);
                    self.set_taint(Reg::RA, 0);
                    st.stack.push(crate::checkpoint::FrameSnap {
                        func: st.func,
                        ret_pc: st.pc + 1,
                        ra_token: token,
                    });
                    st.func = *callee;
                    func = &flat.funcs[*callee as usize];
                    st.pc = func.entry_pc;
                }
                FlatStep::Branch { cond, rs1, rs2, taken, fall, .. } => {
                    let a = self.machine.read(*rs1);
                    let b = rs2.map(|r| self.machine.read(r)).unwrap_or(0);
                    st.pc = if eval_cond(&cfg, *cond, a, b) { *taken } else { *fall };
                }
                FlatStep::Ret { .. } => {
                    let frame = st.stack.pop().expect("entry returns retired the batch");
                    st.func = frame.func;
                    func = &flat.funcs[frame.func as usize];
                    st.pc = frame.ret_pc;
                }
            }
        }

        counters.replay_cycles += st.cycle - restored_at;
        // Undo the batch, leaving the scratch machine in initial state.
        self.machine.restore_regs(&self.initial_regs);
        while let Some((w, old)) = self.dirty.pop() {
            self.machine.memory.set_word(w, old);
        }
        self.clear_lanes(u64::MAX);
    }

    /// Divergence detection of one ordinary instruction: forks or retires
    /// lanes whose store behavior differs from the golden replay's, keeps
    /// divergent loads batched per-lane, and flags lanes printing a
    /// divergent value. Returns `false` when the batch emptied.
    #[allow(clippy::too_many_arguments)]
    fn detect_inst(
        &mut self,
        golden: &GoldenRun,
        inst: &Inst,
        st: &ExecState,
        active: &mut u64,
        sdc: &mut u64,
        hash_div: &mut u64,
        restored_at: u64,
        counters: &mut BatchCounters,
        lanes: &[(Reg, u32, u32)],
        out: &mut [LaneRun],
    ) -> bool {
        match inst {
            Inst::Load { base, offset, width, signed, .. } => {
                // A tainted base yields a *different* effective address in
                // that lane (truncation is injective on xlen-bit values).
                // The lane either traps right here — misaligned or out of
                // bounds, retired as the crash the scalar run takes — or
                // stays batched: a load mutates nothing but `rd`, and the
                // shared memory *is* the lane's memory (divergent stores
                // fork), so the lane simply reads its own value. Its trace
                // hash diverges for good, though — the load event records
                // the address — so the lane leaves the Benign set.
                self.load_divergent = 0;
                let cfg = *self.machine.config();
                let size = width.bytes();
                let g_base = self.machine.read(*base);
                let mut m = self.taint_of(*base) & *active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let addr = cfg.truncate(
                        self.lane_value(*base, lane, g_base).wrapping_add(*offset as u64),
                    );
                    let trap = !addr.is_multiple_of(size)
                        || addr
                            .checked_add(size)
                            .is_none_or(|end| end > self.machine.memory.len() as u64);
                    if trap {
                        out[lanes[lane].2 as usize] = LaneRun {
                            class: FaultClass::Crash,
                            converged_at: None,
                            simulated_cycles: st.cycle + 1 - restored_at,
                            restored_at,
                        };
                        *active &= !(1u64 << lane);
                    } else {
                        let raw = self.machine.memory.load(addr, size).expect("bounds checked");
                        self.lane_results[lane] = Self::extend_load(raw, *signed, size);
                        self.load_divergent |= 1u64 << lane;
                        *hash_div |= 1u64 << lane;
                    }
                }
                self.clear_lanes(!*active);
            }
            Inst::Store { rs, base, offset, width } => {
                self.detect_store_addr(
                    golden,
                    *base,
                    *offset,
                    width.bytes(),
                    st,
                    active,
                    *sdc,
                    *hash_div,
                    restored_at,
                    counters,
                    lanes,
                    out,
                );
                // Lanes with the same (clean-base) address but a tainted
                // value: the store only observes the low `width` bytes, so
                // the lane stays batched iff the masked value matches.
                let size = width.bytes();
                let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
                let g = self.machine.read(*rs) & mask;
                let mut m = self.taint_of(*rs) & *active & !self.taint_of(*base);
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lane_value(*rs, lane, 0) & mask != g {
                        let run = self.fork_lane(
                            golden,
                            st,
                            lane,
                            *sdc,
                            *hash_div,
                            restored_at,
                            counters,
                        );
                        out[lanes[lane].2 as usize] = run;
                        *active &= !(1u64 << lane);
                    }
                }
                self.clear_lanes(!*active);
            }
            Inst::Print { rs } => {
                // Printing doesn't mutate machine state, so divergent
                // lanes stay batched — flagged, with the output recorded
                // for an eventual fork.
                let mut m = self.taint_of(*rs) & *active;
                *sdc |= m;
                *hash_div |= m;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = self.vals[rs.index() as usize * LANES + lane];
                    self.out_patches.push((st.outputs.len() as u32, lane as u8, v));
                }
            }
            _ => {}
        }
        *active != 0
    }

    /// Store address-divergence check: a lane whose store address differs
    /// would corrupt the shared memory, so it either traps right here —
    /// misaligned or out of bounds, retired as the crash the scalar run
    /// takes — or forks to execute its divergent access scalar-ly.
    #[allow(clippy::too_many_arguments)]
    fn detect_store_addr(
        &mut self,
        golden: &GoldenRun,
        base: Reg,
        offset: i64,
        size: u64,
        st: &ExecState,
        active: &mut u64,
        sdc: u64,
        hash_div: u64,
        restored_at: u64,
        counters: &mut BatchCounters,
        lanes: &[(Reg, u32, u32)],
        out: &mut [LaneRun],
    ) {
        let cfg = *self.machine.config();
        let g_base = self.machine.read(base);
        let mut m = self.taint_of(base) & *active;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let addr =
                cfg.truncate(self.lane_value(base, lane, g_base).wrapping_add(offset as u64));
            let trap = !addr.is_multiple_of(size)
                || addr.checked_add(size).is_none_or(|end| end > self.machine.memory.len() as u64);
            let run = if trap {
                LaneRun {
                    class: FaultClass::Crash,
                    converged_at: None,
                    simulated_cycles: st.cycle + 1 - restored_at,
                    restored_at,
                }
            } else {
                self.fork_lane(golden, st, lane, sdc, hash_div, restored_at, counters)
            };
            out[lanes[lane].2 as usize] = run;
            *active &= !(1u64 << lane);
        }
        self.clear_lanes(!*active);
    }

    /// Shared execution of one ordinary instruction plus the lane taint
    /// update: tainted lanes recompute the result from their own source
    /// values; a lane whose result equals the golden one drops its taint.
    fn exec_inst(&mut self, inst: &Inst, st: &mut ExecState) {
        let cfg = *self.machine.config();
        // (rd, lanes-with-a-possibly-divergent-result) of arithmetic steps;
        // the lane results land in `lane_results`.
        let pending: Option<(Reg, u64)> = match inst {
            Inst::Li { rd, .. } | Inst::La { rd, .. } => Some((*rd, 0)),
            // Divergent-address lanes read their own (extended) value,
            // recorded by `detect_inst`; everyone else gets the golden load
            // and drops any stale `rd` taint.
            Inst::Load { rd, .. } => Some((*rd, self.load_divergent)),
            Inst::Mv { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| v))),
            Inst::Neg { rd, rs } => {
                Some((*rd, self.lane_unary(*rs, |v| cfg.truncate(0u64.wrapping_sub(v)))))
            }
            Inst::Seqz { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| u64::from(v == 0)))),
            Inst::Snez { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| u64::from(v != 0)))),
            Inst::AluImm { op, rd, rs1, imm } => {
                let imm = *imm as u64;
                Some((*rd, per_alu_op!(&cfg, *op, |f| self.lane_unary(*rs1, |v| f(v, imm)))))
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                Some((*rd, per_alu_op!(&cfg, *op, |f| self.lane_binary(*rs1, *rs2, f))))
            }
            Inst::Store { .. } | Inst::Print { .. } | Inst::Nop => None,
            Inst::Call { .. } => unreachable!("pre-resolved during flattening"),
        };

        let step = step_inst(
            &mut self.machine,
            inst,
            &mut st.hash,
            &mut st.outputs,
            Some(&mut st.mem_digest),
            None,
            &mut self.dirty,
        );
        let StepResult::Next = step else {
            unreachable!("the golden replay cannot trap");
        };
        st.pc += 1;

        if let Some((rd, affected)) = pending {
            if cfg.is_zero_reg(rd) {
                return;
            }
            let g_rd = self.machine.read(rd);
            let mut taint = 0u64;
            let mut m = affected;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lane_results[lane] != g_rd {
                    self.vals[rd.index() as usize * LANES + lane] = self.lane_results[lane];
                    taint |= 1u64 << lane;
                }
            }
            self.set_taint(rd, taint);
        }
    }

    /// Sign- or zero-extends a raw loaded value from the access width —
    /// the scalar interpreter's own extension rule.
    fn extend_load(raw: u64, signed: bool, size: u64) -> u64 {
        if !signed {
            return raw;
        }
        let bits = size * 8;
        let sign = 1u64 << (bits - 1);
        if raw & sign != 0 {
            raw | !((1u64 << bits) - 1)
        } else {
            raw
        }
    }

    /// Computes lane results of a unary operation over the tainted lanes
    /// of `rs`; returns the affected-lane mask.
    #[inline(always)]
    fn lane_unary(&mut self, rs: Reg, f: impl Fn(u64) -> u64) -> u64 {
        let affected = self.taint_of(rs);
        let vals = &self.vals[rs.index() as usize * LANES..][..LANES];
        let mut m = affected;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.lane_results[lane] = f(vals[lane]);
        }
        affected
    }

    /// Computes lane results of a binary operation over the lanes where
    /// `rs1` or `rs2` is tainted (the other operand at its golden value);
    /// returns the affected-lane mask.
    #[inline(always)]
    fn lane_binary(&mut self, rs1: Reg, rs2: Reg, f: impl Fn(u64, u64) -> u64) -> u64 {
        let a_g = self.machine.read(rs1);
        let b_g = self.machine.read(rs2);
        let affected = self.taint_of(rs1) | self.taint_of(rs2);
        let mut m = affected;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let a = self.lane_value(rs1, lane, a_g);
            let b = self.lane_value(rs2, lane, b_g);
            self.lane_results[lane] = f(a, b);
        }
        affected
    }
}
