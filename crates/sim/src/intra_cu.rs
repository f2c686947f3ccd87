//! The intra-CU execution engine: stream-core-level sharding.
//!
//! [`crate::ParallelEngine`] parallelizes at compute-unit granularity,
//! which caps the speedup at the CU count — useless for the paper's
//! single-CU experiments. This engine shards *within* each compute unit:
//! the 16 stream cores are split into contiguous ranges, and each
//! `(CU, shard)` pair becomes one task on a shared worker pool (workers
//! repeatedly steal the next task from a common queue, so a slow shard
//! never idles the other workers).
//!
//! Sharding at stream-core granularity is only sound because every piece
//! of mutable per-lane state is stream-core-private:
//!
//! - each SC owns its memoization FIFOs and FPU (`lane → SC (lane mod
//!   16)` never crosses shards),
//! - each SC owns its error-injection stream (see
//!   [`crate::ComputeUnit::new`]): a lane's EDS verdict depends only on
//!   (CU seed, its SC, that SC's issue count), never on which other SCs
//!   ran in between.
//!
//! What is *not* private — the ECU, the cycle counter, and the sink
//! pipeline, whose f64 energy sums are addition-order-sensitive — is not
//! touched during shard execution at all. Shards journal their lane
//! events per instruction; after the pool drains, the real CU adopts the
//! shards' stream-core state and the journals are merged
//! instruction-aligned, in lane order, and replayed through the real
//! ECU/cycles/sinks. The replayed stream is exactly what a sequential
//! walk would have flushed, so the [`crate::DeviceReport`] is
//! **bit-identical** across the sequential, parallel and intra-CU
//! backends — for any shard count.
//!
//! Spatial mode ([`crate::ArchMode::Spatial`]) reuses results *across*
//! stream cores within a sub-wavefront slot, so it cannot be sharded;
//! this engine then falls back to the parallel (CU-level) engine, as it
//! does for programs that move values across lanes
//! ([`crate::program::VInst::LaneShift`]). A program's lanewise
//! instructions never read a non-owned lane, so approximate matching
//! shards like exact matching. Programs whose scatter/gather hazards are
//! not lane-private (see [`crate::program::hazards_are_lane_private`])
//! fall back to the sequential engine, exactly like the parallel engine
//! does.

use crate::compiled::{run_cu_queue, CompiledProgram, Lanes, LaunchState, ScatterRec};
use crate::compute_unit::{ComputeUnit, ShardJournal};
use crate::config::ArchMode;
use crate::engine::{
    program_needs_sequential_fallback, ExecEngine, ParallelEngine, Schedule, SequentialEngine,
};
use crate::obs::DeviceObs;
use crate::program::Bindings;
use crate::sink::LaneEvent;
use std::ops::Range;
use std::sync::Mutex;

/// The stream-core-sharding engine. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct IntraCuEngine {
    shards_per_cu: Option<usize>,
    obs: Option<DeviceObs>,
}

impl IntraCuEngine {
    /// An engine that picks the shard count from the host's available
    /// parallelism (clamped to the stream-core count; at one shard per
    /// CU it simply delegates to the parallel engine).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with a fixed shard count per CU (clamped to
    /// `1..=stream_cores_per_cu`). Results are shard-count-invariant;
    /// this exists for tests and benchmarks.
    #[must_use]
    pub fn with_shards(shards_per_cu: usize) -> Self {
        Self {
            shards_per_cu: Some(shards_per_cu.max(1)),
            obs: None,
        }
    }

    /// The same engine recording per-task and per-merge wall spans plus
    /// `intra_cu.steals` / `intra_cu.fallback_to_*` counters through
    /// `obs`.
    #[must_use]
    pub fn with_obs(mut self, obs: Option<DeviceObs>) -> Self {
        self.obs = obs;
        self
    }

    fn resolve_shards(&self, num_scs: usize, num_cus: usize) -> usize {
        match self.shards_per_cu {
            Some(n) => n.clamp(1, num_scs),
            None => (worker_count() / num_cus.max(1)).clamp(1, num_scs),
        }
    }
}

fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits `num_scs` stream cores into `shards` contiguous ranges, as
/// evenly as possible.
fn shard_ranges(num_scs: usize, shards: usize) -> Vec<Range<usize>> {
    let base = num_scs / shards;
    let extra = num_scs % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Merges the per-shard journals of one CU instruction-aligned and
/// replays each instruction's lane-ordered event stream through the real
/// CU's ECU, cycle counter and sinks.
///
/// # Panics
///
/// Panics if the shards' instruction streams diverged (every shard must
/// issue the same instruction sequence).
fn replay_journals(cu: &mut ComputeUnit, journals: &[ShardJournal]) {
    let n_instr = journals.first().map_or(0, |j| j.instructions.len());
    for j in journals {
        assert_eq!(
            j.instructions.len(),
            n_instr,
            "intra-CU shards diverged: unequal instruction streams"
        );
    }
    let mut cursors = vec![0usize; journals.len()];
    let mut merged: Vec<LaneEvent> = Vec::new();
    for k in 0..n_instr {
        let op = journals[0].instructions[k].op;
        for j in journals {
            assert_eq!(
                j.instructions[k].op, op,
                "intra-CU shards diverged at instruction {k}"
            );
        }
        merged.clear();
        // K-way merge by lane (each shard's per-instruction run is
        // already lane-ascending; shard counts are small).
        loop {
            let mut best: Option<usize> = None;
            let mut best_lane = usize::MAX;
            for (s, j) in journals.iter().enumerate() {
                if cursors[s] < j.instructions[k].events_end {
                    let lane = j.events[cursors[s]].lane;
                    if lane < best_lane {
                        best_lane = lane;
                        best = Some(s);
                    }
                }
            }
            let Some(s) = best else { break };
            merged.push(journals[s].events[cursors[s]]);
            cursors[s] += 1;
        }
        cu.replay_instruction(op, &mut merged);
    }
}

impl ExecEngine for IntraCuEngine {
    fn run_compiled(
        &self,
        cus: &mut [ComputeUnit],
        compiled: &CompiledProgram,
        bindings: &mut Bindings,
        schedule: &Schedule,
        in_flight: usize,
    ) -> u64 {
        assert!(in_flight > 0, "need at least one wavefront in flight");
        let num_scs = cus[0].config().stream_cores_per_cu;
        let arch = cus[0].config().arch;
        let shards = self.resolve_shards(num_scs, cus.len());
        if arch == ArchMode::Spatial || shards <= 1 {
            if let Some(obs) = &self.obs {
                obs.inc("intra_cu.fallback_to_parallel", 1);
            }
            return ParallelEngine::with_obs(self.obs.clone())
                .run_compiled(cus, compiled, bindings, schedule, in_flight);
        }
        // Size check before hazard analysis — the latter walks every
        // index buffer, which dwarfs a tiny launch all by itself.
        if compiled.prefers_sequential(schedule.global_size()) {
            // Task spawn + two-stage merge dwarfs a tiny launch.
            if let Some(obs) = &self.obs {
                obs.inc("engine.small_kernel_sequential", 1);
            }
            return SequentialEngine::with_obs(self.obs.clone())
                .run_compiled(cus, compiled, bindings, schedule, in_flight);
        }
        if program_needs_sequential_fallback(compiled.source(), bindings, schedule) {
            if let Some(obs) = &self.obs {
                obs.inc("intra_cu.fallback_to_sequential", 1);
            }
            return SequentialEngine::with_obs(self.obs.clone())
                .run_compiled(cus, compiled, bindings, schedule, in_flight);
        }
        if compiled.source().has_cross_lane_ops() {
            // A LaneShift reads lanes the shard does not own; CU-level
            // parallelism keeps whole wavefronts together.
            if let Some(obs) = &self.obs {
                obs.inc("intra_cu.fallback_cross_lane", 1);
            }
            return ParallelEngine::with_obs(self.obs.clone())
                .run_compiled(cus, compiled, bindings, schedule, in_flight);
        }
        let ranges = shard_ranges(num_scs, shards);
        let queues = schedule.queues();
        let launch = LaunchState::new(
            compiled,
            bindings,
            schedule.max_wavefront_lanes(),
            schedule.global_size(),
        );
        let launch = &launch;

        struct Task {
            id: usize,
            cu_idx: usize,
            cu: ComputeUnit,
            bindings: Bindings,
            sc_range: Range<usize>,
        }
        let mut tasks: Vec<Task> = Vec::new();
        for (cu_idx, cu) in cus.iter().enumerate() {
            for r in &ranges {
                tasks.push(Task {
                    id: tasks.len(),
                    cu_idx,
                    cu: cu.clone(),
                    // Lane-private hazards: a snapshot plus the shard's
                    // own writes is a faithful view for its lanes.
                    bindings: bindings.clone(),
                    sc_range: r.clone(),
                });
            }
        }
        let n_tasks = tasks.len();
        let task_queue = Mutex::new(tasks);
        type ProgramResult = (Task, ShardJournal, Vec<ScatterRec>);
        let done: Vec<Mutex<Option<ProgramResult>>> =
            (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let workers = worker_count().min(n_tasks);
        std::thread::scope(|scope| {
            let task_queue = &task_queue;
            let done = &done;
            let queues = &queues;
            for w in 0..workers {
                let obs = self.obs.clone();
                scope.spawn(move || {
                    let mut executed = 0u64;
                    loop {
                        let Some(mut task) = task_queue.lock().expect("task queue poisoned").pop()
                        else {
                            break;
                        };
                        executed += 1;
                        let task_start = obs.as_ref().map(DeviceObs::now_us);
                        let id = task.id;
                        let mut journal = ShardJournal::default();
                        let mut scatters = Vec::new();
                        run_cu_queue(
                            &mut task.cu,
                            compiled,
                            launch,
                            &queues[task.cu_idx],
                            &mut task.bindings,
                            in_flight,
                            &mut Lanes::Shard {
                                sc_range: task.sc_range.clone(),
                                num_scs,
                                journal: &mut journal,
                                scatters: &mut scatters,
                                ordinal: 0,
                            },
                            None,
                        );
                        if let (Some(obs), Some(start)) = (&obs, task_start) {
                            obs.wall_span(
                                task_span_name(task.cu_idx, &task.sc_range),
                                "intra-cu",
                                w as u64,
                                start,
                                Vec::new(),
                            );
                        }
                        *done[id].lock().expect("result slot poisoned") =
                            Some((task, journal, scatters));
                    }
                    if executed > 0 {
                        if let Some(obs) = &obs {
                            obs.inc("intra_cu.steals", executed);
                        }
                    }
                });
            }
        });

        let mut results = done
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("execution worker dropped a task")
            })
            .collect::<Vec<_>>()
            .into_iter();
        for (cu_idx, cu) in cus.iter_mut().enumerate() {
            let merge_start = self.obs.as_ref().map(DeviceObs::now_us);
            let mut journals = Vec::with_capacity(shards);
            let mut scatter_logs = Vec::with_capacity(shards);
            for _ in 0..shards {
                let (mut task, journal, scatters) = results.next().expect("missing shard result");
                debug_assert_eq!(task.cu_idx, cu_idx);
                cu.adopt_shard(&mut task.cu, task.sc_range.clone());
                journals.push(journal);
                scatter_logs.push(scatters);
            }
            replay_journals(cu, &journals);
            replay_scatters(bindings, &scatter_logs);
            if let (Some(obs), Some(start)) = (&self.obs, merge_start) {
                obs.wall_span(format!("cu{cu_idx}:merge"), "intra-cu", cu_idx as u64, start, Vec::new());
            }
        }
        schedule.wavefronts() as u64
    }
}

/// The wall-span name for one `(CU, stream-core shard)` task.
fn task_span_name(cu_idx: usize, sc_range: &Range<usize>) -> String {
    format!("cu{cu_idx}:sc{}-{}", sc_range.start, sc_range.end)
}

/// K-way merges the shards' scatter logs by `(ordinal, lane)` — each log
/// is already sorted by that key — and applies them in order, which is
/// exactly the sequential engine's write order for this CU's queue.
fn replay_scatters(bindings: &mut Bindings, logs: &[Vec<ScatterRec>]) {
    let mut cursors = vec![0usize; logs.len()];
    loop {
        let mut best: Option<usize> = None;
        let mut best_key = (u32::MAX, u32::MAX);
        for (s, log) in logs.iter().enumerate() {
            if let Some(r) = log.get(cursors[s]) {
                let key = (r.ordinal, r.lane);
                if key < best_key {
                    best_key = key;
                    best = Some(s);
                }
            }
        }
        let Some(s) = best else { break };
        let r = logs[s][cursors[s]];
        bindings.apply_write(r.data, r.index, r.value);
        cursors[s] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        let r = shard_ranges(16, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], 0..4);
        assert_eq!(r.last().unwrap().end, 16);
        let total: usize = r.iter().map(Range::len).sum();
        assert_eq!(total, 16);
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
