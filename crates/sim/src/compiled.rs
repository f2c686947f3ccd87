//! Bytecode lowering and the lane-vectorized program VM.
//!
//! [`crate::program::VProgram`] is the kernel form, but a direct
//! tree-walk over [`crate::program::VInst`] pays avoidable
//! per-instruction costs: immediates are re-splatted on every ALU step,
//! gather/scatter addressing re-reads and re-converts `f32` index
//! buffers lane by lane, and every instruction is a fresh dispatch.
//! Lowering into a flat [`CompiledProgram`] once per program removes all
//! of that from the interpreter's inner loop:
//!
//! - **Cursors** — ALU operand slots are precomputed into
//!   register/immediate-pool cursors; the immediate pool is deduplicated
//!   and splatted **once per launch** (`LaunchState`), not per step.
//! - **Index caches** — when no scatter targets an index buffer (the
//!   addressing is static), every index buffer is converted to `usize`
//!   once per launch. Computed addressing (`gid` and the clamped
//!   neighbour of an image tap) needs no buffer at all.
//! - **Packets** — runs of *free* (non-issuing) instructions — gathers,
//!   lane ids, lane shifts, mask pushes/pops — collapse into one `Free`
//!   packet; scatters of an ALU's destination fold into that ALU's
//!   packet as a "pipe" tail (gather→alu→scatter without re-dispatch);
//!   `MUL`-by-immediate + `EXP` pairs fuse into an exp-chain
//!   superinstruction; loop markers become control packets, so a loop
//!   body is lowered once however many times it runs.
//!
//! Every step is stream-preserving: the FPUs see the operand sets the
//! instruction list describes, in the order it describes them.
//!
//! # Interleaving invariants
//!
//! The packet is the unit of wavefront interleaving (`in_flight`).
//! Every packet either only *reads* buffers (a `Free` run) or only
//! *writes* them (an ALU body with its scatter tail, or a standalone
//! scatter run), so coarsening the interleave from instructions to
//! packets cannot change what any hazard-free or lane-private program
//! computes. Every wavefront walks the same packet sequence (loop counts
//! are launch-uniform), so the in-flight wavefronts of a CU advance in
//! lockstep and packets that issue nothing — free runs, scatters, loop
//! control — never reorder the FPU issues. The per-CU sequence of
//! `(wavefront, op, operands)` issues — the stream temporal memoization
//! lives on — is therefore *identical* to the instruction-granular walk
//! at any `in_flight`, with one documented exception: an exp-chain
//! packet issues its two ops back to back, where the
//! instruction-granular walk could interleave another wavefront between
//! them when `in_flight > 1`. At `in_flight == 1` every backend is
//! bit-identical either way.
//!
//! Lane order is fixed: every loop here walks lanes `0..lanes` in
//! ascending order (the stream-core-major issue order lives inside
//! [`ComputeUnit`]), so both backends produce byte-identical
//! [`crate::DeviceReport`]s.

use crate::compute_unit::ComputeUnit;
use crate::obs::DeviceObs;
use crate::program::{Addr, Bindings, BufferId, Grid, Src, VInst, VProgram, VReg8};
use std::collections::BTreeSet;
use std::ops::Range;
use tm_fpu::{FpOp, MAX_ARITY};

/// Lane-ops (`instructions × global_size`) below which the parallel
/// engine delegates a program launch to the sequential engine: for tiny
/// launches (a Haar level, an FWT stage) thread spawn plus scatter replay
/// costs more than the work itself — the fwt-ir "parallel cliff".
pub const SMALL_KERNEL_LANE_OPS: usize = 1 << 18;

/// An ALU operand slot, resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    /// A vector register.
    Reg(VReg8),
    /// An index into the deduplicated immediate pool.
    Imm(u16),
}

/// One lowered ALU instruction plus its folded scatter tail.
#[derive(Debug, Clone, Copy)]
struct AluStep {
    op: FpOp,
    dst: VReg8,
    arity: u8,
    srcs: [Cursor; MAX_ARITY],
    scatter_first: u32,
    scatter_len: u32,
}

/// One lowered free (non-issuing) instruction.
#[derive(Debug, Clone, Copy)]
enum FreeStep {
    LaneId { dst: VReg8 },
    Gather { dst: VReg8, data: BufferId, addr: Addr },
    LaneShift { dst: VReg8, src: VReg8, offset: i32 },
    PushMask { mask: VReg8 },
    PopMask,
}

/// One lowered scatter.
#[derive(Debug, Clone, Copy)]
struct ScatterStep {
    src: VReg8,
    data: BufferId,
    addr: Addr,
}

/// One interpreter dispatch: the unit of wavefront interleaving.
#[derive(Debug, Clone, Copy)]
enum Packet {
    /// `frees[first..first+len]` — buffer reads and register moves only.
    Free { first: u32, len: u32 },
    /// `alus[idx]` with its scatter tail — one FPU issue, then writes.
    Alu { idx: u32 },
    /// `alus[idx]` (a `MUL` by an immediate) immediately followed by
    /// `alus[idx + 1]` (the `EXP` of its result) — two FPU issues.
    ExpChain { idx: u32 },
    /// `scatters[first..first+len]` — buffer writes only.
    Scatters { first: u32, len: u32 },
    /// Opens a loop of `count` iterations.
    Loop { count: u32 },
    /// Closes the innermost loop: back to packet `body` while
    /// iterations remain.
    EndLoop { body: u32 },
}

/// A [`VProgram`] lowered into flat bytecode. Built once per program
/// (validation included), executed by every backend.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    source: VProgram,
    packets: Vec<Packet>,
    alus: Vec<AluStep>,
    frees: Vec<FreeStep>,
    scatters: Vec<ScatterStep>,
    imms: Vec<f32>,
    /// Registers read (or masked-written) before their first full
    /// write — the only ones a fresh wavefront must zero-initialize.
    zero_regs: Vec<VReg8>,
    /// The index buffers converted to `usize` once per launch: every one
    /// the program addresses through, when no scatter targets any of them
    /// (the addressing is static), else none.
    cached_indices: Vec<BufferId>,
    exp_chains: usize,
}

impl CompiledProgram {
    /// Lowers a validated program into bytecode.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more than `u16::MAX` distinct
    /// immediates (no real kernel comes close).
    #[must_use]
    pub fn compile(program: &VProgram) -> Self {
        let mut packets: Vec<Packet> = Vec::new();
        let mut alus: Vec<AluStep> = Vec::new();
        let mut frees: Vec<FreeStep> = Vec::new();
        let mut scatters: Vec<ScatterStep> = Vec::new();
        let mut imms: Vec<f32> = Vec::new();
        let mut exp_chains = 0usize;
        // Packet index of each open loop's `Loop` packet.
        let mut open_loops: Vec<usize> = Vec::new();

        fn push_free(packets: &mut Vec<Packet>, frees: &mut Vec<FreeStep>, step: FreeStep) {
            let pos = frees.len() as u32;
            frees.push(step);
            match packets.last_mut() {
                Some(Packet::Free { first, len }) if *first + *len == pos => *len += 1,
                _ => packets.push(Packet::Free { first: pos, len: 1 }),
            }
        }

        for inst in program.instructions() {
            match inst {
                VInst::LaneId { dst } => {
                    push_free(&mut packets, &mut frees, FreeStep::LaneId { dst: *dst });
                }
                VInst::Gather { dst, data, addr } => push_free(
                    &mut packets,
                    &mut frees,
                    FreeStep::Gather { dst: *dst, data: *data, addr: *addr },
                ),
                VInst::LaneShift { dst, src, offset } => push_free(
                    &mut packets,
                    &mut frees,
                    FreeStep::LaneShift { dst: *dst, src: *src, offset: *offset },
                ),
                VInst::PushMask { mask } => {
                    push_free(&mut packets, &mut frees, FreeStep::PushMask { mask: *mask });
                }
                VInst::PopMask => push_free(&mut packets, &mut frees, FreeStep::PopMask),
                VInst::Alu { op, dst, srcs } => {
                    let mut cursors = [Cursor::Reg(0); MAX_ARITY];
                    for (k, s) in srcs.iter().enumerate() {
                        cursors[k] = match s {
                            Src::Reg(r) => Cursor::Reg(*r),
                            Src::Imm(v) => Cursor::Imm(intern_imm(&mut imms, *v)),
                        };
                    }
                    let idx = alus.len() as u32;
                    alus.push(AluStep {
                        op: *op,
                        dst: *dst,
                        arity: srcs.len() as u8,
                        srcs: cursors,
                        scatter_first: 0,
                        scatter_len: 0,
                    });
                    // Exp-chain fusion: a MUL by an immediate feeding an
                    // EXP of its result (the `exp(x) = exp2(x·log2 e)`
                    // shape every transcendental lowering emits). Purely
                    // structural — both ops still issue, in order, with
                    // unchanged operands.
                    if let Some(Packet::Alu { idx: prev }) = packets.last().copied() {
                        let (a, b) = (&alus[prev as usize], &alus[idx as usize]);
                        if a.op == FpOp::Mul
                            && a.scatter_len == 0
                            && a.srcs[..2].iter().any(|c| matches!(c, Cursor::Imm(_)))
                            && b.op == FpOp::Exp2
                            && b.srcs[0] == Cursor::Reg(a.dst)
                        {
                            *packets.last_mut().expect("checked above") =
                                Packet::ExpChain { idx: prev };
                            exp_chains += 1;
                            continue;
                        }
                    }
                    packets.push(Packet::Alu { idx });
                }
                VInst::Scatter { src, data, addr } => {
                    let step = ScatterStep { src: *src, data: *data, addr: *addr };
                    // Fold into the producing ALU's tail: the packet
                    // stays write-only (the ALU reads registers, not
                    // buffers) and the fold is contiguous by
                    // construction (the ALU is still the last packet).
                    let producer = match packets.last() {
                        Some(Packet::Alu { idx }) => Some(*idx),
                        Some(Packet::ExpChain { idx }) => Some(idx + 1),
                        _ => None,
                    };
                    if let Some(idx) = producer {
                        let a = &mut alus[idx as usize];
                        if a.dst == *src {
                            if a.scatter_len == 0 {
                                a.scatter_first = scatters.len() as u32;
                            }
                            scatters.push(step);
                            a.scatter_len += 1;
                            continue;
                        }
                    }
                    let pos = scatters.len() as u32;
                    scatters.push(step);
                    match packets.last_mut() {
                        Some(Packet::Scatters { first, len }) if *first + *len == pos => *len += 1,
                        _ => packets.push(Packet::Scatters { first: pos, len: 1 }),
                    }
                }
                VInst::Loop { count } => {
                    open_loops.push(packets.len());
                    packets.push(Packet::Loop { count: *count });
                }
                VInst::EndLoop => {
                    let opener = open_loops.pop().expect("validated loop nesting");
                    packets.push(Packet::EndLoop { body: opener as u32 + 1 });
                }
            }
        }

        let scattered: BTreeSet<BufferId> = scatters.iter().map(|s| s.data).collect();
        let index_buffers: BTreeSet<BufferId> = frees
            .iter()
            .filter_map(|f| match f {
                FreeStep::Gather { addr, .. } => addr.index_buffer(),
                _ => None,
            })
            .chain(scatters.iter().filter_map(|s| s.addr.index_buffer()))
            .collect();
        // A scatter that rewrites addressing mid-launch makes every cache
        // unsound.
        let cached_indices = if index_buffers.is_disjoint(&scattered) {
            index_buffers.into_iter().collect()
        } else {
            Vec::new()
        };

        Self {
            zero_regs: regs_needing_zero(program.instructions(), program.registers()),
            source: program.clone(),
            packets,
            alus,
            frees,
            scatters,
            imms,
            cached_indices,
            exp_chains,
        }
    }

    /// The program this bytecode was lowered from (the canonical form —
    /// hazard analysis and disassembly run against it).
    #[must_use]
    pub fn source(&self) -> &VProgram {
        &self.source
    }

    /// The program's name (see [`VProgram::with_name`]).
    #[must_use]
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// Number of interpreter packets (dispatches per wavefront pass,
    /// loop bodies counted once).
    #[must_use]
    pub fn packet_count(&self) -> usize {
        self.packets.len()
    }

    /// Number of fused exp-chain superinstructions.
    #[must_use]
    pub fn exp_chains(&self) -> usize {
        self.exp_chains
    }

    /// Whether a threaded engine should delegate this launch to the
    /// sequential engine (see [`SMALL_KERNEL_LANE_OPS`]). Loop bodies
    /// count once per iteration.
    #[must_use]
    pub fn prefers_sequential(&self, global_size: usize) -> bool {
        self.source.dynamic_len().saturating_mul(global_size) < SMALL_KERNEL_LANE_OPS
    }
}

/// Registers whose initial 0.0 contents are observable: read (as an ALU
/// source, mask, lane-shift input or scatter payload) — or written under
/// a mask, which preserves inactive lanes — before their first full
/// unconditional write. Everything else is overwritten before any read,
/// so a fresh wavefront can skip zeroing it. A loop's first iteration
/// runs its body in list order, so the linear walk sees every first
/// read.
fn regs_needing_zero(insts: &[VInst], registers: usize) -> Vec<VReg8> {
    let mut written = vec![false; registers];
    let mut needs = vec![false; registers];
    let mut depth = 0usize;
    for inst in insts {
        let read = |r: VReg8, written: &[bool], needs: &mut [bool]| {
            if !written[r as usize] {
                needs[r as usize] = true;
            }
        };
        match inst {
            VInst::Alu { dst, srcs, .. } => {
                for s in srcs {
                    if let Src::Reg(r) = s {
                        read(*r, &written, &mut needs);
                    }
                }
                if depth > 0 {
                    // Masked write-back keeps the old value in inactive
                    // lanes — that is a read of the destination.
                    read(*dst, &written, &mut needs);
                }
                written[*dst as usize] = true;
            }
            VInst::Gather { dst, .. } | VInst::LaneId { dst } => written[*dst as usize] = true,
            VInst::LaneShift { dst, src, .. } => {
                read(*src, &written, &mut needs);
                written[*dst as usize] = true;
            }
            VInst::PushMask { mask } => {
                read(*mask, &written, &mut needs);
                depth += 1;
            }
            VInst::PopMask => depth = depth.saturating_sub(1),
            VInst::Scatter { src, .. } => read(*src, &written, &mut needs),
            VInst::Loop { .. } | VInst::EndLoop => {}
        }
    }
    (0..registers)
        .filter(|&r| needs[r])
        .map(|r| r as VReg8)
        .collect()
}

/// Deduplicates an immediate into the pool (bitwise, so `-0.0` and
/// `NaN` payloads stay distinct where they were distinct).
fn intern_imm(imms: &mut Vec<f32>, v: f32) -> u16 {
    let at = imms
        .iter()
        .position(|x| x.to_bits() == v.to_bits())
        .unwrap_or_else(|| {
            imms.push(v);
            imms.len() - 1
        });
    u16::try_from(at).expect("immediate pool exceeds u16 indices")
}

/// One journaled scatter write (`bindings[data][index] = value`) for the
/// parallel engine's CU-order replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScatterWrite {
    pub data: BufferId,
    pub index: usize,
    pub value: f32,
}

/// Where a queue drain records its per-wavefront cycle spans: on the
/// CU's cycle track for in-flight slot 0, and on track
/// `cu + slot × num_cus` for slot *k* — each slot's wavefronts run back
/// to back, so every track stays well nested at any `in_flight`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaveTrace<'a> {
    pub obs: &'a DeviceObs,
    pub cu: usize,
    pub num_cus: usize,
}

impl<'a> WaveTrace<'a> {
    /// The trace target for `cu`, if `obs` records spans.
    pub(crate) fn new(obs: Option<&'a DeviceObs>, cu: usize, num_cus: usize) -> Option<Self> {
        obs.filter(|o| o.has_recorder())
            .map(|obs| Self { obs, cu, num_cus })
    }
}

/// Per-launch derived state, shared read-only by every CU/worker: the
/// immediate pool splatted to wavefront width, and (when addressing is
/// static) every index buffer pre-converted to `usize`.
#[derive(Debug)]
pub(crate) struct LaunchState {
    imm_lanes: Vec<Vec<f32>>,
    index_cache: Vec<Option<Vec<usize>>>,
}

impl LaunchState {
    pub fn new(
        compiled: &CompiledProgram,
        bindings: &Bindings,
        max_lanes: usize,
        global_size: usize,
    ) -> Self {
        let imm_lanes = compiled.imms.iter().map(|&v| vec![v; max_lanes]).collect();
        let mut index_cache: Vec<Option<Vec<usize>>> = vec![None; bindings.len()];
        for &id in &compiled.cached_indices {
            // Out-of-range or short buffers fall back to live reads,
            // preserving the uncached panic-on-use semantics (a fully
            // masked scatter must not panic eagerly).
            if id < bindings.len() && bindings.buffer(id).len() >= global_size {
                index_cache[id] = Some(
                    bindings.buffer(id)[..global_size]
                        .iter()
                        .map(|&x| x as usize)
                        .collect(),
                );
            }
        }
        Self { imm_lanes, index_cache }
    }

    /// The cached element positions `addr` selects, indexed by gid.
    fn cached(&self, addr: Addr) -> Option<&[usize]> {
        let ids = addr.index_buffer()?;
        self.index_cache.get(ids)?.as_deref()
    }
}

/// One in-flight wavefront: program counter over packets, register
/// file, the mask stack (each entry already intersected with its
/// predecessors, so the top *is* the active mask) and the remaining
/// iterations of each open loop.
#[derive(Debug, Default)]
struct WaveState {
    /// The in-flight slot this state occupies (stable across resets).
    slot: usize,
    start: usize,
    lanes: usize,
    start_cycle: u64,
    pc: usize,
    regs: Vec<Vec<f32>>,
    masks: Vec<Vec<bool>>,
    mask_pool: Vec<Vec<bool>>,
    loops: Vec<u32>,
}

impl WaveState {
    /// Re-targets this state at a fresh wavefront, reusing every
    /// allocation. Only registers whose initial value is observable
    /// ([`CompiledProgram::zero_regs`]) are zeroed — the rest are fully
    /// overwritten before any read, so their stale lanes never escape.
    fn reset(&mut self, range: Range<usize>, compiled: &CompiledProgram, cycle: u64) {
        self.start = range.start;
        self.lanes = range.len();
        self.start_cycle = cycle;
        self.pc = 0;
        self.regs.resize_with(compiled.source.registers(), Vec::new);
        for r in &mut self.regs {
            r.resize(self.lanes, 0.0);
        }
        for &r in &compiled.zero_regs {
            self.regs[r as usize].fill(0.0);
        }
        self.mask_pool.append(&mut self.masks);
        self.loops.clear();
    }
}

/// Reusable buffers for one CU queue drain: the all-active mask and the
/// ALU result/lane-shift temporary. Steady state allocates nothing.
#[derive(Debug, Default)]
struct ExecScratch {
    active: Vec<bool>,
    result: Vec<f32>,
}

/// Drains one CU's wavefront queue with `in_flight`-way packet
/// interleaving. With a `journal`, every scatter is applied to the
/// (local) `bindings` *and* recorded for replay onto the shared bindings.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cu_queue(
    cu: &mut ComputeUnit,
    compiled: &CompiledProgram,
    launch: &LaunchState,
    queue: &[Range<usize>],
    bindings: &mut Bindings,
    in_flight: usize,
    mut journal: Option<&mut Vec<ScatterWrite>>,
    trace: Option<WaveTrace<'_>>,
) {
    let mut scratch = ExecScratch::default();
    let mut pending = queue.iter().cloned();
    let mut active: Vec<WaveState> = Vec::with_capacity(in_flight);
    for (slot, range) in pending.by_ref().take(in_flight).enumerate() {
        let mut ws = WaveState { slot, ..WaveState::default() };
        ws.reset(range, compiled, cu.cycles());
        active.push(ws);
    }
    while !active.is_empty() {
        let mut i = 0;
        while i < active.len() {
            step_packet(
                cu,
                compiled,
                launch,
                &mut active[i],
                bindings,
                journal.as_deref_mut(),
                &mut scratch,
            );
            if active[i].pc >= compiled.packets.len() {
                if let Some(t) = trace {
                    let ws = &active[i];
                    t.obs.cycle_span(
                        format!("wf:{}..{}", ws.start, ws.start + ws.lanes),
                        "wavefront",
                        (t.cu + ws.slot * t.num_cus) as u64,
                        ws.start_cycle,
                        cu.cycles(),
                        Vec::new(),
                    );
                }
                match pending.next() {
                    Some(fresh) => active[i].reset(fresh, compiled, cu.cycles()),
                    None => {
                        active.remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
}

/// Executes one packet of one wavefront.
fn step_packet(
    cu: &mut ComputeUnit,
    compiled: &CompiledProgram,
    launch: &LaunchState,
    ws: &mut WaveState,
    bindings: &mut Bindings,
    mut journal: Option<&mut Vec<ScatterWrite>>,
    scratch: &mut ExecScratch,
) {
    match compiled.packets[ws.pc] {
        Packet::Free { first, len } => {
            for k in first..first + len {
                exec_free(compiled.frees[k as usize], launch, ws, bindings, scratch);
            }
        }
        Packet::Alu { idx } => {
            exec_alu(cu, compiled, launch, ws, bindings, journal, scratch, idx as usize);
        }
        Packet::ExpChain { idx } => {
            let idx = idx as usize;
            exec_alu(cu, compiled, launch, ws, bindings, journal.as_deref_mut(), scratch, idx);
            exec_alu(cu, compiled, launch, ws, bindings, journal, scratch, idx + 1);
        }
        Packet::Scatters { first, len } => {
            for k in first..first + len {
                let step = compiled.scatters[k as usize];
                exec_scatter(step, launch, ws, bindings, journal.as_deref_mut());
            }
        }
        Packet::Loop { count } => ws.loops.push(count),
        Packet::EndLoop { body } => {
            let left = ws.loops.last_mut().expect("validated loop nesting");
            *left -= 1;
            if *left > 0 {
                ws.pc = body as usize;
                return;
            }
            ws.loops.pop();
        }
    }
    ws.pc += 1;
}

/// Executes one free (non-issuing) step.
fn exec_free(
    step: FreeStep,
    launch: &LaunchState,
    ws: &mut WaveState,
    bindings: &Bindings,
    scratch: &mut ExecScratch,
) {
    match step {
        FreeStep::LaneId { dst } => {
            let start = ws.start;
            for (l, r) in ws.regs[dst as usize].iter_mut().enumerate() {
                *r = (start + l) as f32;
            }
        }
        FreeStep::Gather { dst, data, addr } => {
            let start = ws.start;
            let reg = &mut ws.regs[dst as usize];
            let buf = bindings.buffer(data);
            match addr {
                Addr::Indexed(ids) => match launch.cached(addr) {
                    Some(cache) => {
                        for (r, &at) in reg.iter_mut().zip(&cache[start..]) {
                            *r = buf[at];
                        }
                    }
                    None => {
                        let idx = &bindings.buffer(ids)[start..start + ws.lanes];
                        for (r, &at) in reg.iter_mut().zip(idx) {
                            *r = buf[at as usize];
                        }
                    }
                },
                Addr::Gid => reg.copy_from_slice(&buf[start..start + ws.lanes]),
                Addr::Neighbour { dx, dy, width } => {
                    let grid = Grid::new(width, buf.len());
                    let (mut x, mut y) = (start % grid.width, start / grid.width);
                    for r in reg.iter_mut() {
                        *r = buf[grid.neighbour(x, y, dx, dy)];
                        x += 1;
                        if x == grid.width {
                            x = 0;
                            y += 1;
                        }
                    }
                }
            }
        }
        FreeStep::LaneShift { dst, src, offset } => {
            let lanes = ws.lanes;
            let mut tmp = std::mem::take(&mut scratch.result);
            tmp.clear();
            tmp.resize(lanes, 0.0);
            let srcv = &ws.regs[src as usize];
            for (l, t) in tmp.iter_mut().enumerate() {
                let from = l as i64 + i64::from(offset);
                if (0..lanes as i64).contains(&from) {
                    *t = srcv[from as usize];
                }
            }
            std::mem::swap(&mut ws.regs[dst as usize], &mut tmp);
            scratch.result = tmp;
        }
        FreeStep::PushMask { mask } => {
            let mut m = ws.mask_pool.pop().unwrap_or_default();
            m.clear();
            let reg = &ws.regs[mask as usize];
            match ws.masks.last() {
                Some(top) => m.extend(reg.iter().zip(top).map(|(&v, &a)| a && v != 0.0)),
                None => m.extend(reg.iter().map(|&v| v != 0.0)),
            }
            ws.masks.push(m);
        }
        FreeStep::PopMask => {
            if let Some(m) = ws.masks.pop() {
                ws.mask_pool.push(m);
            }
        }
    }
}

/// Executes one ALU step (issue + masked write-back + scatter tail).
#[allow(clippy::too_many_arguments)]
fn exec_alu(
    cu: &mut ComputeUnit,
    compiled: &CompiledProgram,
    launch: &LaunchState,
    ws: &mut WaveState,
    bindings: &mut Bindings,
    mut journal: Option<&mut Vec<ScatterWrite>>,
    scratch: &mut ExecScratch,
    idx: usize,
) {
    let step = compiled.alus[idx];
    let width = ws.lanes;
    let mut result = std::mem::take(&mut scratch.result);
    {
        let mut slices = [[].as_slice(); MAX_ARITY];
        for (k, cursor) in step.srcs[..step.arity as usize].iter().enumerate() {
            slices[k] = match cursor {
                Cursor::Reg(r) => &ws.regs[*r as usize],
                Cursor::Imm(i) => &launch.imm_lanes[*i as usize][..width],
            };
        }
        let active: &[bool] = match ws.masks.last() {
            Some(m) => m,
            None => {
                // `scratch.active` only ever holds `true`, so a matching
                // length means it is already the all-lanes mask.
                if scratch.active.len() != width {
                    scratch.active.clear();
                    scratch.active.resize(width, true);
                }
                &scratch.active
            }
        };
        cu.issue_vector_into(step.op, &slices[..step.arity as usize], active, &mut result);
        // Masked write-back preserves the destination in inactive lanes
        // (Evergreen predication).
        if let Some(m) = ws.masks.last() {
            let old = &ws.regs[step.dst as usize];
            for (l, r) in result.iter_mut().enumerate() {
                if !m[l] {
                    *r = old[l];
                }
            }
        }
    }
    std::mem::swap(&mut ws.regs[step.dst as usize], &mut result);
    scratch.result = result;
    for k in step.scatter_first..step.scatter_first + step.scatter_len {
        exec_scatter(compiled.scatters[k as usize], launch, ws, bindings, journal.as_deref_mut());
    }
}

/// Executes one scatter step for the active lanes, journaling each
/// write when a `journal` is given.
fn exec_scatter(
    step: ScatterStep,
    launch: &LaunchState,
    ws: &WaveState,
    bindings: &mut Bindings,
    mut journal: Option<&mut Vec<ScatterWrite>>,
) {
    let mask = ws.masks.last();
    let reg = &ws.regs[step.src as usize];
    let cache = launch.cached(step.addr);
    for (l, &value) in reg.iter().enumerate() {
        if mask.is_some_and(|m| !m[l]) {
            continue;
        }
        let gid = ws.start + l;
        let index = match cache {
            Some(c) => c[gid],
            None => bindings.element(step.data, step.addr, gid),
        };
        bindings.apply_write(step.data, index, value);
        if let Some(journal) = journal.as_deref_mut() {
            journal.push(ScatterWrite { data: step.data, index, value });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::engine::{ExecEngine, ParallelEngine, Schedule, SequentialEngine};
    use crate::program::{Src, VInst};

    fn cus(config: &DeviceConfig, n: usize) -> Vec<ComputeUnit> {
        (0..n).map(|i| ComputeUnit::new(config, i)).collect()
    }

    /// `out[i] = sqrt(in[i]) * 2 + in[i]` with identity indices — one
    /// free run, three ALU packets (last with a folded scatter tail).
    fn simple_program() -> VProgram {
        VProgram::new(
            3,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(0)] },
                VInst::Alu {
                    op: FpOp::Mul,
                    dst: 1,
                    srcs: vec![Src::Reg(1), Src::Imm(2.0)],
                },
                VInst::Alu {
                    op: FpOp::Add,
                    dst: 2,
                    srcs: vec![Src::Reg(1), Src::Reg(0)],
                },
                VInst::Scatter { src: 2, data: 2, addr: Addr::Indexed(1) },
            ],
        )
        .unwrap()
    }

    #[test]
    fn lowering_folds_frees_and_scatter_tails() {
        let cp = CompiledProgram::compile(&simple_program());
        // Free{gather}, Alu{sqrt}, Alu{mul}, Alu{add + scatter tail}.
        assert_eq!(cp.packet_count(), 4);
        assert_eq!(cp.alus[2].scatter_len, 1);
        assert_eq!(cp.exp_chains(), 0);
        assert_eq!(cp.cached_indices, vec![1]);
    }

    #[test]
    fn immediates_are_deduplicated() {
        let p = VProgram::new(
            1,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu { op: FpOp::Add, dst: 0, srcs: vec![Src::Reg(0), Src::Imm(3.0)] },
                VInst::Alu { op: FpOp::Mul, dst: 0, srcs: vec![Src::Reg(0), Src::Imm(3.0)] },
                VInst::Alu { op: FpOp::Max, dst: 0, srcs: vec![Src::Reg(0), Src::Imm(-3.0)] },
            ],
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p);
        assert_eq!(cp.imms, vec![3.0, -3.0]);
    }

    #[test]
    fn exp_chain_detected_and_numerically_exact() {
        // exp(x) = exp2(x * log2 e): the canonical chain.
        let p = VProgram::new(
            2,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu {
                    op: FpOp::Mul,
                    dst: 1,
                    srcs: vec![Src::Reg(0), Src::Imm(std::f32::consts::LOG2_E)],
                },
                VInst::Alu { op: FpOp::Exp2, dst: 1, srcs: vec![Src::Reg(1)] },
                VInst::Scatter { src: 1, data: 0, addr: Addr::Gid },
            ],
        )
        .unwrap();
        let cp = CompiledProgram::compile(&p);
        assert_eq!(cp.exp_chains(), 1);
        // LaneId, ExpChain (two issues, with the exp's scatter tail).
        assert_eq!(cp.packet_count(), 2);

        let n = 64;
        let config = DeviceConfig::default();
        let mut b = Bindings::new(vec![vec![0.0; n]]);
        let schedule = Schedule::new(n, config.wavefront_size, 1);
        SequentialEngine::new().run_compiled(&mut cus(&config, 1), &cp, &mut b, &schedule, 1);
        for (i, &v) in b.buffer(0).iter().enumerate() {
            let expect = (i as f32 * std::f32::consts::LOG2_E).exp2();
            assert_eq!(v, expect, "lane {i}");
        }
    }

    /// The masked/lane-shifted feature program: a backward-induction
    /// shaped loop body exercising PushMask, preserve-dst, LaneShift
    /// and a masked scatter. Large enough (per caller) to clear the
    /// small-kernel heuristic when a threaded path must be exercised.
    fn masked_program() -> VProgram {
        VProgram::new(
            4,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(1) }, // v
                VInst::Gather { dst: 2, data: 2, addr: Addr::Gid },        // predicate
                VInst::LaneShift { dst: 3, src: 1, offset: 1 },            // v_up
                VInst::PushMask { mask: 2 },
                VInst::Alu {
                    op: FpOp::MulAdd,
                    dst: 1,
                    srcs: vec![Src::Reg(3), Src::Imm(0.5), Src::Reg(1)],
                },
                VInst::Scatter { src: 1, data: 3, addr: Addr::Indexed(1) },
                VInst::PopMask,
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Imm(1.0)] },
                VInst::Scatter { src: 1, data: 4, addr: Addr::Gid },
            ],
        )
        .unwrap()
    }

    fn masked_bindings(n: usize) -> Bindings {
        Bindings::new(vec![
            (0..n).map(|i| (i % 13) as f32).collect(),
            (0..n).map(|i| i as f32).collect(),
            (0..n).map(|i| f32::from(i % 3 == 0)).collect(),
            vec![-1.0; n],
            vec![0.0; n],
        ])
    }

    #[test]
    fn masked_alu_preserves_dst_and_masked_scatter_skips_lanes() {
        let n = 64;
        let config = DeviceConfig::default();
        let mut b = masked_bindings(n);
        let schedule = Schedule::new(n, config.wavefront_size, 1);
        let cp = CompiledProgram::compile(&masked_program());
        SequentialEngine::new().run_compiled(&mut cus(&config, 1), &cp, &mut b, &schedule, 1);
        for i in 0..n {
            let v0 = (i % 13) as f32;
            let up = if i + 1 < n { ((i + 1) % 13) as f32 } else { 0.0 };
            let live = i % 3 == 0;
            let v1 = if live { up.mul_add(0.5, v0) } else { v0 };
            // Masked scatter: only live lanes stored into buf3.
            let expect3 = if live { v1 } else { -1.0 };
            assert_eq!(b.buffer(3)[i], expect3, "masked scatter lane {i}");
            // Post-pop ALU sees the merged register (preserve-dst).
            assert_eq!(b.buffer(4)[i], v1 + 1.0, "preserve-dst lane {i}");
        }
    }

    #[test]
    fn masked_and_cross_lane_programs_agree_across_backends() {
        // Large enough that the parallel engine does NOT take the
        // small-kernel sequential fallback (10 insts × 64k lanes).
        let n = 1 << 16;
        let config = DeviceConfig::default();
        let cp = CompiledProgram::compile(&masked_program());
        assert!(!cp.prefers_sequential(n));
        let schedule = Schedule::new(n, config.wavefront_size, 2);

        let mut seq_b = masked_bindings(n);
        let mut seq_cus = cus(&config, 2);
        SequentialEngine::new().run_compiled(&mut seq_cus, &cp, &mut seq_b, &schedule, 2);

        let mut par_b = masked_bindings(n);
        let mut par_cus = cus(&config, 2);
        ParallelEngine::new().run_compiled(&mut par_cus, &cp, &mut par_b, &schedule, 2);

        assert_eq!(seq_b, par_b);
        for (a, b) in seq_cus.iter().zip(&par_cus) {
            assert_eq!(a.cycles(), b.cycles());
            assert_eq!(a.ledger().total_pj(), b.ledger().total_pj());
        }
    }

    /// A loop body with a wavefront-varying operand, an immediate and a
    /// masked step, unrolled `count` times or expressed as a loop.
    fn looped_program(count: u32, unrolled: bool) -> VProgram {
        let body = || {
            vec![
                VInst::Alu { op: FpOp::Mul, dst: 1, srcs: vec![Src::Reg(1), Src::Imm(0.75)] },
                VInst::PushMask { mask: 2 },
                VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Reg(0)] },
                VInst::PopMask,
                VInst::Alu { op: FpOp::Sqrt, dst: 0, srcs: vec![Src::Reg(1)] },
            ]
        };
        let mut insts = vec![
            VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
            VInst::Gather { dst: 1, data: 0, addr: Addr::Gid },
            VInst::Gather { dst: 2, data: 1, addr: Addr::Gid },
        ];
        if unrolled {
            for _ in 0..count {
                insts.extend(body());
            }
        } else {
            insts.push(VInst::Loop { count });
            insts.extend(body());
            insts.push(VInst::EndLoop);
        }
        insts.push(VInst::Scatter { src: 0, data: 2, addr: Addr::Gid });
        VProgram::new(3, insts).unwrap()
    }

    #[test]
    fn loops_issue_exactly_the_unrolled_stream() {
        let n = 64 * 12;
        let config = DeviceConfig::builder()
            .with_error_mode(crate::ErrorMode::FixedRate(0.05))
            .build()
            .unwrap();
        let schedule = Schedule::new(n, config.wavefront_size, 2);
        let bindings = || {
            Bindings::new(vec![
                (0..n).map(|i| (i % 5) as f32).collect(),
                (0..n).map(|i| f32::from(i % 4 != 0)).collect(),
                vec![0.0; n],
            ])
        };
        let looped = CompiledProgram::compile(&looped_program(7, false));
        let unrolled = CompiledProgram::compile(&looped_program(7, true));
        assert!(looped.packet_count() < unrolled.packet_count());
        for in_flight in [1, 3] {
            let (mut a_cus, mut b_cus) = (cus(&config, 2), cus(&config, 2));
            let (mut a, mut b) = (bindings(), bindings());
            SequentialEngine::new().run_compiled(&mut a_cus, &looped, &mut a, &schedule, in_flight);
            SequentialEngine::new().run_compiled(&mut b_cus, &unrolled, &mut b, &schedule, in_flight);
            assert_eq!(a, b, "in_flight {in_flight}");
            for (x, y) in a_cus.iter().zip(&b_cus) {
                assert_eq!(x.cycles(), y.cycles());
                assert_eq!(x.ledger().total_pj(), y.ledger().total_pj());
                assert_eq!(x.errors_injected(), y.errors_injected());
                assert_eq!(x.op_stats(FpOp::Add), y.op_stats(FpOp::Add));
            }
        }
    }

    #[test]
    fn small_kernel_heuristic_thresholds_on_dynamic_lane_ops() {
        let cp = CompiledProgram::compile(&simple_program());
        assert!(cp.prefers_sequential(1024)); // 5 × 1024 « 2^18
        assert!(!cp.prefers_sequential(1 << 17)); // 5 × 131072 ≥ 2^18
        // A loop counts once per iteration: 4 + 7 × 5 instructions.
        let looped = CompiledProgram::compile(&looped_program(7, false));
        assert_eq!(looped.source().dynamic_len(), 4 + 7 * 5);
        assert!(!looped.prefers_sequential(8192));
    }

    #[test]
    fn short_index_buffer_under_full_mask_does_not_panic_at_launch() {
        // The scatter's index buffer is too short for the ND-range, but
        // every lane that would use it is masked off: the launch-time
        // cache must fall back to (never-executed) live reads instead
        // of eagerly converting.
        let p = VProgram::new(
            2,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Alu { op: FpOp::Mul, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(0.0)] },
                VInst::PushMask { mask: 1 },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::PopMask,
            ],
        )
        .unwrap();
        let n = 64;
        let mut b = Bindings::new(vec![
            vec![1.0; n],
            vec![0.0; 1], // short: would panic if eagerly cached
        ]);
        let config = DeviceConfig::default();
        let schedule = Schedule::new(n, config.wavefront_size, 1);
        let cp = CompiledProgram::compile(&p);
        SequentialEngine::new().run_compiled(&mut cus(&config, 1), &cp, &mut b, &schedule, 1);
        assert_eq!(b.buffer(0), vec![1.0; n].as_slice());
    }
}
