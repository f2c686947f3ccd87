//! Pluggable execution engines: scheduling separated from execution.
//!
//! The [`Schedule`] is the *scheduling* layer: it maps an ND-range onto
//! wavefronts and wavefronts onto compute units (the ultra-threaded
//! dispatcher's round-robin, `wavefront w → CU (w mod CUs)`), and is
//! shared by every backend so the per-CU operand streams — the property
//! temporal memoization lives on — are engine-invariant.
//!
//! The [`ExecEngine`] implementations are the *execution* layer:
//!
//! - [`SequentialEngine`] walks wavefronts in dispatch order on the
//!   calling thread — the reference semantics.
//! - [`ParallelEngine`] runs one `std::thread` scoped worker per compute
//!   unit. Because every mutable per-run state (FIFOs, injector, ECU,
//!   energy ledger, tallies, observers) is owned by its
//!   [`ComputeUnit`], and each CU processes exactly the wavefronts the
//!   schedule assigns it *in the same order* as the sequential engine,
//!   the per-CU end states are identical — and
//!   [`crate::Device::report`] merges them in CU index order, so the
//!   [`crate::DeviceReport`] is **bit-identical** across backends
//!   (floating-point sums included).
//!
//! Workers run against snapshots of the bindings, journal their
//! scatters and replay them in CU index order, falling back to the
//! sequential engine when a program gathers from a scattered buffer (a
//! cross-wavefront data hazard).

use crate::compiled::{run_cu_queue, CompiledProgram, LaunchState, ScatterWrite, WaveTrace};
use crate::compute_unit::ComputeUnit;
use crate::obs::DeviceObs;
use crate::program::{Bindings, BufferId, VInst, VProgram};
use std::collections::BTreeSet;
use std::ops::Range;
use tm_obs::ArgValue;

/// One wavefront's assignment: which CU runs which global-id range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveAssignment {
    /// Dispatch-order wavefront index.
    pub wavefront: usize,
    /// The compute unit the wavefront executes on.
    pub cu: usize,
    /// Global work-item ids of the wavefront's lanes.
    pub lane_range: Range<usize>,
}

/// The scheduling layer: an ND-range split into wavefronts, each mapped
/// to a compute unit.
///
/// # Examples
///
/// ```
/// use tm_sim::Schedule;
///
/// // 100 work-items, 64-lane wavefronts, 2 CUs: a full wavefront on
/// // CU 0 and a partial one on CU 1.
/// let s = Schedule::new(100, 64, 2);
/// assert_eq!(s.wavefronts(), 2);
/// assert_eq!(s.assignments()[1].cu, 1);
/// assert_eq!(s.assignments()[1].lane_range, 64..100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    assignments: Vec<WaveAssignment>,
    num_cus: usize,
}

impl Schedule {
    /// Splits `global_size` work-items into wavefronts of
    /// `wavefront_size` (the trailing wavefront may be partial) and
    /// assigns wavefront *w* to CU *(w mod num_cus)*.
    ///
    /// # Panics
    ///
    /// Panics if `global_size`, `wavefront_size` or `num_cus` is zero.
    #[must_use]
    pub fn new(global_size: usize, wavefront_size: usize, num_cus: usize) -> Self {
        assert!(global_size > 0, "cannot dispatch an empty ND-range");
        assert!(wavefront_size > 0, "wavefront size must be positive");
        assert!(num_cus > 0, "need at least one compute unit");
        let mut assignments = Vec::new();
        let mut start = 0usize;
        let mut w = 0usize;
        while start < global_size {
            let end = (start + wavefront_size).min(global_size);
            assignments.push(WaveAssignment {
                wavefront: w,
                cu: w % num_cus,
                lane_range: start..end,
            });
            start = end;
            w += 1;
        }
        Self {
            assignments,
            num_cus,
        }
    }

    /// Number of wavefronts.
    #[must_use]
    pub fn wavefronts(&self) -> usize {
        self.assignments.len()
    }

    /// Number of compute units scheduled over.
    #[must_use]
    pub const fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// The per-wavefront assignments, in dispatch order.
    #[must_use]
    pub fn assignments(&self) -> &[WaveAssignment] {
        &self.assignments
    }

    /// Each CU's wavefront queue (lane ranges in dispatch order) — the
    /// unit of work a parallel worker owns.
    #[must_use]
    pub fn queues(&self) -> Vec<Vec<Range<usize>>> {
        let mut queues: Vec<Vec<Range<usize>>> = vec![Vec::new(); self.num_cus];
        for a in &self.assignments {
            queues[a.cu].push(a.lane_range.clone());
        }
        queues
    }

    /// The dispatched ND-range size (one past the last work-item id).
    #[must_use]
    pub fn global_size(&self) -> usize {
        self.assignments.last().map_or(0, |a| a.lane_range.end)
    }

    /// The widest wavefront in the schedule (all but the trailing
    /// partial are `wavefront_size` wide) — sizes per-launch splats.
    #[must_use]
    pub fn max_wavefront_lanes(&self) -> usize {
        self.assignments
            .iter()
            .map(|a| a.lane_range.len())
            .max()
            .unwrap_or(0)
    }
}

/// The execution layer: how a schedule's assignments are carried out.
pub trait ExecEngine {
    /// Runs `program` over `schedule` with `in_flight` wavefronts
    /// interleaved per CU, returning wavefronts dispatched.
    ///
    /// Provided: lowers the program and delegates to
    /// [`ExecEngine::run_compiled`]. Callers that launch the same
    /// program repeatedly (stage loops, campaigns) should compile once
    /// and call `run_compiled` directly.
    fn run_program(
        &self,
        cus: &mut [ComputeUnit],
        program: &VProgram,
        bindings: &mut Bindings,
        schedule: &Schedule,
        in_flight: usize,
    ) -> u64 {
        let compiled = CompiledProgram::compile(program);
        self.run_compiled(cus, &compiled, bindings, schedule, in_flight)
    }

    /// Runs pre-lowered bytecode over `schedule` with `in_flight`
    /// wavefronts interleaved per CU, returning wavefronts dispatched.
    fn run_compiled(
        &self,
        cus: &mut [ComputeUnit],
        compiled: &CompiledProgram,
        bindings: &mut Bindings,
        schedule: &Schedule,
        in_flight: usize,
    ) -> u64;
}

/// The reference engine: one thread, wavefronts in dispatch order.
#[derive(Debug, Clone, Default)]
pub struct SequentialEngine {
    obs: Option<DeviceObs>,
}

impl SequentialEngine {
    /// An engine without a tracing handle.
    #[must_use]
    pub const fn new() -> Self {
        Self { obs: None }
    }

    /// An engine recording per-wavefront cycle spans through `obs` (a
    /// `None` makes this identical to [`SequentialEngine::new`]).
    #[must_use]
    pub const fn with_obs(obs: Option<DeviceObs>) -> Self {
        Self { obs }
    }
}

impl ExecEngine for SequentialEngine {
    fn run_compiled(
        &self,
        cus: &mut [ComputeUnit],
        compiled: &CompiledProgram,
        bindings: &mut Bindings,
        schedule: &Schedule,
        in_flight: usize,
    ) -> u64 {
        assert!(in_flight > 0, "need at least one wavefront in flight");
        let launch = LaunchState::new(
            compiled,
            bindings,
            schedule.max_wavefront_lanes(),
            schedule.global_size(),
        );
        for (cu_idx, queue) in schedule.queues().iter().enumerate() {
            run_cu_queue(
                &mut cus[cu_idx],
                compiled,
                &launch,
                queue,
                bindings,
                in_flight,
                None,
                WaveTrace::new(self.obs.as_ref(), cu_idx, schedule.num_cus()),
            );
        }
        schedule.wavefronts() as u64
    }
}

/// The multi-threaded engine: one scoped worker per compute unit.
#[derive(Debug, Clone, Default)]
pub struct ParallelEngine {
    obs: Option<DeviceObs>,
}

impl ParallelEngine {
    /// An engine without a tracing handle.
    #[must_use]
    pub const fn new() -> Self {
        Self { obs: None }
    }

    /// An engine recording per-CU worker wall spans, per-wavefront cycle
    /// spans and fallback counters through `obs`.
    #[must_use]
    pub const fn with_obs(obs: Option<DeviceObs>) -> Self {
        Self { obs }
    }
}

impl ExecEngine for ParallelEngine {
    fn run_compiled(
        &self,
        cus: &mut [ComputeUnit],
        compiled: &CompiledProgram,
        bindings: &mut Bindings,
        schedule: &Schedule,
        in_flight: usize,
    ) -> u64 {
        assert!(in_flight > 0, "need at least one wavefront in flight");
        // The size check comes first: it is O(1), while the hazard
        // analysis walks every index buffer — on a 13-stage FWT that
        // analysis alone used to cost 2x the whole sequential run.
        if compiled.prefers_sequential(schedule.global_size()) {
            // Thread spawn plus journal replay dwarfs a tiny launch (a
            // Haar level, an FWT stage) — the fwt-ir parallel cliff.
            if let Some(obs) = &self.obs {
                obs.inc("engine.small_kernel_sequential", 1);
            }
            return SequentialEngine::with_obs(self.obs.clone()).run_compiled(
                cus, compiled, bindings, schedule, in_flight,
            );
        }
        if program_needs_sequential_fallback(compiled.source(), bindings, schedule) {
            // A gather (or scatter addressing) may observe another CU's
            // scatter; only the sequential order is well-defined.
            if let Some(obs) = &self.obs {
                obs.inc("engine.fallback_to_sequential", 1);
            }
            return SequentialEngine::with_obs(self.obs.clone()).run_compiled(
                cus, compiled, bindings, schedule, in_flight,
            );
        }
        let launch = LaunchState::new(
            compiled,
            bindings,
            schedule.max_wavefront_lanes(),
            schedule.global_size(),
        );
        let launch = &launch;
        let queues = schedule.queues();
        let num_cus = schedule.num_cus();
        let journals: Vec<Vec<ScatterWrite>> = std::thread::scope(|scope| {
            let handles: Vec<_> = cus
                .iter_mut()
                .enumerate()
                .zip(&queues)
                .map(|((cu_idx, cu), queue)| {
                    // Hazard-free programs never read scattered data, so a
                    // snapshot of the bindings is a faithful input set.
                    let mut local = bindings.clone();
                    let obs = self.obs.clone();
                    scope.spawn(move || {
                        let worker_start = obs.as_ref().map(DeviceObs::now_us);
                        let mut journal = Vec::new();
                        run_cu_queue(
                            cu,
                            compiled,
                            launch,
                            queue,
                            &mut local,
                            in_flight,
                            Some(&mut journal),
                            WaveTrace::new(obs.as_ref(), cu_idx, num_cus),
                        );
                        if let (Some(obs), Some(start)) = (&obs, worker_start) {
                            obs.wall_span(
                                format!("cu{cu_idx}:worker"),
                                "parallel",
                                cu_idx as u64,
                                start,
                                vec![("wavefronts".to_string(), ArgValue::U64(queue.len() as u64))],
                            );
                        }
                        journal
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("execution worker panicked"))
                .collect()
        });
        // Replay scatters in CU index order: identical to the sequential
        // engine, which drains CU 0's queue before CU 1's.
        for journal in journals {
            for w in journal {
                bindings.apply_write(w.data, w.index, w.value);
            }
        }
        schedule.wavefronts() as u64
    }
}

/// Whether a program must fall back to the sequential engine: it has a
/// buffer-level read-after-scatter hazard **and** the dependence-aware
/// splitter ([`crate::program::hazards_are_lane_private`]) cannot prove
/// the hazard lane-private. In-place stage programs with disjoint
/// per-lane index pairs (the FWT butterfly) pass the refined check and
/// stay parallel.
fn program_needs_sequential_fallback(
    program: &VProgram,
    bindings: &Bindings,
    schedule: &Schedule,
) -> bool {
    has_cross_wavefront_hazard(program)
        && !crate::program::hazards_are_lane_private(program, bindings, schedule.global_size())
}

/// Whether a buffer written by a scatter is also read (by a gather or as
/// an index buffer) — the pattern whose cross-CU ordering the parallel
/// engine cannot reproduce with snapshot bindings.
fn has_cross_wavefront_hazard(program: &VProgram) -> bool {
    let scattered: BTreeSet<BufferId> = program
        .instructions()
        .iter()
        .filter_map(|inst| match inst {
            VInst::Scatter { data, .. } => Some(*data),
            _ => None,
        })
        .collect();
    let read = |ids: Option<BufferId>| ids.is_some_and(|id| scattered.contains(&id));
    program.instructions().iter().any(|inst| match inst {
        VInst::Gather { data, addr, .. } => scattered.contains(data) || read(addr.index_buffer()),
        VInst::Scatter { addr, .. } => read(addr.index_buffer()),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::program::{Addr, Src};
    use tm_fpu::FpOp;

    #[test]
    fn schedule_round_robins_and_covers_the_range() {
        let s = Schedule::new(300, 64, 3);
        assert_eq!(s.wavefronts(), 5); // 4 full + 1 partial (44 lanes)
        assert_eq!(s.num_cus(), 3);
        let cus: Vec<usize> = s.assignments().iter().map(|a| a.cu).collect();
        assert_eq!(cus, vec![0, 1, 2, 0, 1]);
        let covered: usize = s.assignments().iter().map(|a| a.lane_range.len()).sum();
        assert_eq!(covered, 300);
        assert_eq!(s.assignments()[4].lane_range, 256..300);
    }

    #[test]
    fn queues_preserve_dispatch_order_per_cu() {
        let s = Schedule::new(64 * 6, 64, 2);
        let queues = s.queues();
        assert_eq!(queues[0], vec![0..64, 128..192, 256..320]);
        assert_eq!(queues[1], vec![64..128, 192..256, 320..384]);
    }

    #[test]
    #[should_panic(expected = "empty ND-range")]
    fn empty_schedule_panics() {
        let _ = Schedule::new(0, 64, 1);
    }

    #[test]
    fn hazard_detector_flags_gather_after_scatter() {
        // out[i] then in-place: data buffer 0 both gathered and scattered.
        let hazardous = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Indexed(1) },
            ],
        )
        .unwrap();
        assert!(has_cross_wavefront_hazard(&hazardous));

        // Distinct input and output buffers: safe to parallelize.
        let safe = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Alu {
                    op: FpOp::Sqrt,
                    dst: 0,
                    srcs: vec![Src::Reg(0)],
                },
                VInst::Scatter { src: 0, data: 2, addr: Addr::Gid },
            ],
        )
        .unwrap();
        assert!(!has_cross_wavefront_hazard(&safe));
    }

    fn fresh_cus(config: &DeviceConfig, n: usize) -> Vec<ComputeUnit> {
        (0..n).map(|i| ComputeUnit::new(config, i)).collect()
    }

    #[test]
    fn parallel_program_replays_scatters_deterministically() {
        // out[i] = sqrt(in[i]): gather buf 0, scatter buf 1 — hazard-free.
        let program = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Alu {
                    op: FpOp::Sqrt,
                    dst: 0,
                    srcs: vec![Src::Reg(0)],
                },
                VInst::Scatter { src: 0, data: 1, addr: Addr::Gid },
            ],
        )
        .unwrap();
        let n = 256;
        let make_bindings = || {
            Bindings::new(vec![(0..n).map(|i| (i % 7) as f32).collect(), vec![0.0; n]])
        };
        let config = DeviceConfig::default();
        let schedule = Schedule::new(n, config.wavefront_size, 2);

        let mut seq_cus = fresh_cus(&config, 2);
        let mut seq_b = make_bindings();
        SequentialEngine::new().run_program(&mut seq_cus, &program, &mut seq_b, &schedule, 2);

        let mut par_cus = fresh_cus(&config, 2);
        let mut par_b = make_bindings();
        ParallelEngine::new().run_program(&mut par_cus, &program, &mut par_b, &schedule, 2);

        assert_eq!(seq_b, par_b);
        for (a, b) in seq_cus.iter().zip(&par_cus) {
            assert_eq!(a.cycles(), b.cycles());
            assert_eq!(a.ledger().total_pj(), b.ledger().total_pj());
        }
    }
}
