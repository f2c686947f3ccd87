//! The vector-instruction kernel form: one [`VProgram`] per kernel.
//!
//! Real Evergreen compute units **interleave** wavefronts on the ALU
//! engine, which perturbs each FPU's operand stream and therefore the
//! 2-entry FIFO's temporal locality. Interleaving requires suspending a
//! wavefront between instructions; a [`VProgram`] is a flat list of
//! vector instructions over a register file, so the scheduler in
//! [`crate::Device::run_program`] is free to issue instruction *i* of
//! wavefront A, then instruction *j* of wavefront B.
//!
//! The representation models the paper's §3 "clause-based format": a
//! `VProgram` is one ALU clause (with counted loops, Evergreen's
//! `LOOP_START`/`LOOP_END`); gathers/scatters stand in for the TEX
//! clauses that surround it.
//!
//! # Examples
//!
//! ```
//! use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
//! use tm_sim::{Device, DeviceConfig};
//! use tm_fpu::FpOp;
//!
//! // out[i] = sqrt(in[i]) + 1.0
//! let program = VProgram::new(2, vec![
//!     VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
//!     VInst::Alu { op: FpOp::Sqrt, dst: 1, srcs: vec![Src::Reg(0)] },
//!     VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(1), Src::Imm(1.0)] },
//!     VInst::Scatter { src: 1, data: 1, addr: Addr::Gid },
//! ]).expect("well-formed program");
//!
//! let n = 128;
//! let mut bindings = Bindings::new(vec![
//!     (0..n).map(|i| (i % 4) as f32).collect(), // input
//!     vec![0.0; n],                             // output
//! ]);
//! let mut device = Device::new(DeviceConfig::default());
//! device.run_program(&program, &mut bindings, n, 1);
//! assert_eq!(bindings.buffer(1)[5], 2.0); // sqrt(1) + 1
//! ```

use std::fmt;

/// A virtual vector-register index.
pub type VReg8 = u8;

/// A buffer index into a [`Bindings`] set.
pub type BufferId = usize;

/// The name a program carries until [`VProgram::with_name`] gives it one.
pub const DEFAULT_PROGRAM_NAME: &str = "program";

/// A source operand of an ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// A vector register.
    Reg(VReg8),
    /// An immediate (the same literal in every lane — Evergreen's literal
    /// constants).
    Imm(f32),
}

/// Which element of a buffer a gather reads or a scatter writes, per
/// work-item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// `indices[gid]`: a host-prepared buffer holding one `f32` element
    /// position per work-item.
    Indexed(BufferId),
    /// `gid`: the work-item's own id.
    Gid,
    /// The clamp-to-edge `(dx, dy)` neighbour of `gid` on a row-major
    /// grid `width` elements wide, with as many rows as the addressed
    /// buffer holds — the read `GrayImage::get_clamped` does for a 3×3
    /// image filter.
    Neighbour {
        /// Column offset.
        dx: i8,
        /// Row offset.
        dy: i8,
        /// Grid width in elements (at least 1).
        width: u32,
    },
}

impl Addr {
    /// The index buffer this addressing reads, if any.
    #[must_use]
    pub const fn index_buffer(self) -> Option<BufferId> {
        match self {
            Addr::Indexed(ids) => Some(ids),
            Addr::Gid | Addr::Neighbour { .. } => None,
        }
    }
}

/// One vector instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum VInst {
    /// An FP ALU instruction over the active lanes.
    Alu {
        /// The opcode.
        op: tm_fpu::FpOp,
        /// Destination register.
        dst: VReg8,
        /// Source operands (length must equal the opcode's arity).
        srcs: Vec<Src>,
    },
    /// `dst[lane] = data[addr(gid)]` — a load (a TEX-clause fetch).
    Gather {
        /// Destination register.
        dst: VReg8,
        /// Buffer holding the data.
        data: BufferId,
        /// Which element each work-item reads.
        addr: Addr,
    },
    /// `data[addr(gid)] = src[lane]` — a store.
    Scatter {
        /// Source register.
        src: VReg8,
        /// Buffer written.
        data: BufferId,
        /// Which element each work-item writes.
        addr: Addr,
    },
    /// `dst[lane] = gid as f32` — the work-item id (Evergreen's
    /// `get_global_id`).
    LaneId {
        /// Destination register.
        dst: VReg8,
    },
    /// Pushes a predicate register onto the wavefront's mask stack: a
    /// lane stays active only while every pushed predicate is non-zero
    /// in that lane (Evergreen's `PRED_SET*`/push semantics). While
    /// masked, ALU instructions issue only the active lanes and leave
    /// the destination register untouched in inactive lanes, and
    /// scatters store only from active lanes. Gathers, `LaneId` and
    /// `LaneShift` ignore the mask (they are free host-side moves).
    PushMask {
        /// Predicate register: non-zero means active.
        mask: VReg8,
    },
    /// Pops the most recent [`VInst::PushMask`] predicate.
    PopMask,
    /// `dst[lane] = src[lane + offset]` within the wavefront, `0.0`
    /// where `lane + offset` falls outside it — a cross-lane register
    /// move (no FPU issue). Ignores the mask like a gather.
    LaneShift {
        /// Destination register.
        dst: VReg8,
        /// Source register.
        src: VReg8,
        /// Lane offset (`+1` reads the next-higher lane).
        offset: i32,
    },
    /// Runs the instructions up to the matching [`VInst::EndLoop`]
    /// `count` times (Evergreen's `LOOP_START`). The count is the same
    /// for every wavefront, so all of them walk one instruction stream.
    /// Loops nest.
    Loop {
        /// Iterations (at least 1).
        count: u32,
    },
    /// Closes the innermost [`VInst::Loop`] (Evergreen's `LOOP_END`).
    EndLoop,
}

/// A vector program: one ALU clause with its fetches and stores.
#[derive(Debug, Clone, PartialEq)]
pub struct VProgram {
    name: String,
    registers: usize,
    instructions: Vec<VInst>,
}

/// Why a program failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateProgramError(String);

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid vector program: {}", self.0)
    }
}

impl std::error::Error for ValidateProgramError {}

/// Why a disassembly listing failed to parse (see [`VProgram::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line the error was found on (0 when the listing as a
    /// whole is at fault, e.g. a missing header).
    line: usize,
    message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "cannot parse program listing: {}", self.message)
        } else {
            write!(f, "cannot parse program listing line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseProgramError {}

impl VProgram {
    /// Builds and validates a program with `registers` vector registers,
    /// named [`DEFAULT_PROGRAM_NAME`].
    ///
    /// # Errors
    ///
    /// Returns [`ValidateProgramError`] when an instruction references a
    /// register out of range, an ALU arity does not match its opcode, a
    /// grid width is zero, a [`VInst::PopMask`] or [`VInst::EndLoop`]
    /// has no opener, a loop count is zero, a loop body leaves its mask
    /// stack unbalanced, or a loop is left open.
    pub fn new(registers: usize, instructions: Vec<VInst>) -> Result<Self, ValidateProgramError> {
        let fail = |i: usize, msg: String| ValidateProgramError(format!("instruction {i}: {msg}"));
        let check_reg = |i: usize, r: VReg8, what: &str| {
            if (r as usize) < registers {
                Ok(())
            } else {
                Err(fail(i, format!("{what} register r{r} out of range (program has {registers})")))
            }
        };
        let check_addr = |i: usize, addr: Addr| match addr {
            Addr::Neighbour { width: 0, .. } => {
                Err(fail(i, "grid width must be at least 1".to_string()))
            }
            _ => Ok(()),
        };
        let mut mask_depth = 0usize;
        // Mask depth at each open loop.
        let mut loops: Vec<usize> = Vec::new();
        for (i, inst) in instructions.iter().enumerate() {
            match inst {
                VInst::Alu { op, dst, srcs } => {
                    check_reg(i, *dst, "destination")?;
                    if srcs.len() != op.arity() {
                        return Err(fail(
                            i,
                            format!("{op} expects {} operands, got {}", op.arity(), srcs.len()),
                        ));
                    }
                    for s in srcs {
                        if let Src::Reg(r) = s {
                            check_reg(i, *r, "source")?;
                        }
                    }
                }
                VInst::Gather { dst, addr, .. } => {
                    check_reg(i, *dst, "destination")?;
                    check_addr(i, *addr)?;
                }
                VInst::Scatter { src, addr, .. } => {
                    check_reg(i, *src, "source")?;
                    check_addr(i, *addr)?;
                }
                VInst::LaneId { dst } => check_reg(i, *dst, "destination")?,
                VInst::PushMask { mask } => {
                    check_reg(i, *mask, "mask")?;
                    mask_depth += 1;
                }
                VInst::PopMask => {
                    if mask_depth == loops.last().copied().unwrap_or(0) {
                        return Err(fail(i, "POPM without a matching PUSHM".to_string()));
                    }
                    mask_depth -= 1;
                }
                VInst::LaneShift { dst, src, .. } => {
                    check_reg(i, *dst, "destination")?;
                    check_reg(i, *src, "source")?;
                }
                VInst::Loop { count } => {
                    if *count == 0 {
                        return Err(fail(i, "LOOP count must be at least 1".to_string()));
                    }
                    loops.push(mask_depth);
                }
                VInst::EndLoop => match loops.pop() {
                    None => return Err(fail(i, "ENDLOOP without a matching LOOP".to_string())),
                    Some(depth) if depth != mask_depth => {
                        return Err(fail(i, "loop body leaves its mask stack unbalanced".to_string()));
                    }
                    Some(_) => {}
                },
            }
        }
        if !loops.is_empty() {
            return Err(ValidateProgramError(format!("{} LOOP(s) never closed", loops.len())));
        }
        Ok(Self {
            name: DEFAULT_PROGRAM_NAME.to_string(),
            registers,
            instructions,
        })
    }

    /// Renames the program. Launch spans and telemetry series are named
    /// after it (`launch:<name>`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The program's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vector registers.
    #[must_use]
    pub const fn registers(&self) -> usize {
        self.registers
    }

    /// The instruction list.
    #[must_use]
    pub fn instructions(&self) -> &[VInst] {
        &self.instructions
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Instructions one wavefront executes: loop bodies count once per
    /// iteration, the loop markers not at all.
    #[must_use]
    pub fn dynamic_len(&self) -> usize {
        let mut trips = vec![1usize];
        let mut total = 0usize;
        for inst in &self.instructions {
            let top = *trips.last().expect("the outermost level is never popped");
            match inst {
                VInst::Loop { count } => trips.push(top.saturating_mul(*count as usize)),
                VInst::EndLoop => {
                    trips.pop();
                }
                _ => total = total.saturating_add(top),
            }
        }
        total
    }

    /// Pretty-prints the program as an Evergreen-flavoured assembly
    /// listing, which [`VProgram::parse`] reads back.
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_sim::program::{Src, VInst, VProgram};
    /// use tm_fpu::FpOp;
    ///
    /// let p = VProgram::new(2, vec![
    ///     VInst::LaneId { dst: 0 },
    ///     VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(1.0)] },
    /// ]).unwrap();
    /// let listing = p.disassemble();
    /// assert!(listing.starts_with("; program: 2 registers, 2 instructions"));
    /// assert!(listing.contains("ADD    r1, r0, #1"));
    /// ```
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = format!(
            "; {}: {} registers, {} instructions\n",
            self.name,
            self.registers,
            self.len()
        );
        for (pc, inst) in self.instructions.iter().enumerate() {
            let body = match inst {
                VInst::Alu { op, dst, srcs } => {
                    let operands: Vec<String> = srcs
                        .iter()
                        .map(|s| match s {
                            Src::Reg(r) => format!("r{r}"),
                            Src::Imm(v) => format!("#{v}"),
                        })
                        .collect();
                    format!("{:<6} r{dst}, {}", op.mnemonic(), operands.join(", "))
                }
                VInst::Gather { dst, data, addr } => {
                    format!("GATHER r{dst}, buf{data}[{}]", addr_text(*addr))
                }
                VInst::Scatter { src, data, addr } => {
                    format!("SCATTR buf{data}[{}], r{src}", addr_text(*addr))
                }
                VInst::LaneId { dst } => format!("LANEID r{dst}"),
                VInst::PushMask { mask } => format!("PUSHM  r{mask}"),
                VInst::PopMask => "POPM".to_string(),
                VInst::LaneShift { dst, src, offset } => {
                    format!("SHIFTL r{dst}, r{src}, {offset}")
                }
                VInst::Loop { count } => format!("LOOP   {count}"),
                VInst::EndLoop => "ENDLOOP".to_string(),
            };
            out.push_str(&format!("{pc:>4}: {body}\n"));
        }
        out
    }

    /// Parses a [`Self::disassemble`] listing back into a validated
    /// program — the inverse round trip that makes the listing a wire
    /// format (for remote kernel submission) rather than a debug aid.
    ///
    /// # Errors
    ///
    /// Returns [`ParseProgramError`] on malformed lines, unknown
    /// mnemonics, or when the reassembled program fails validation.
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_sim::program::{Src, VInst, VProgram};
    /// use tm_fpu::FpOp;
    ///
    /// let p = VProgram::new(2, vec![
    ///     VInst::LaneId { dst: 0 },
    ///     VInst::Alu { op: FpOp::Add, dst: 1, srcs: vec![Src::Reg(0), Src::Imm(1.5)] },
    /// ]).unwrap().with_name("add_half");
    /// assert_eq!(VProgram::parse(&p.disassemble()).unwrap(), p);
    /// ```
    pub fn parse(listing: &str) -> Result<Self, ParseProgramError> {
        let fail = |line: usize, message: String| ParseProgramError { line, message };
        let mut header: Option<(String, usize, usize)> = None;
        let mut instructions = Vec::new();
        for (i, raw) in listing.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(text) = line.strip_prefix(';') {
                if header.is_some() {
                    return Err(fail(line_no, "duplicate header line".to_string()));
                }
                let (name, counts) = text
                    .rsplit_once(':')
                    .ok_or_else(|| fail(line_no, format!("bad header {line:?}")))?;
                let words: Vec<&str> = counts.split_whitespace().collect();
                let [regs, "registers,", count, "instructions"] = words.as_slice() else {
                    return Err(fail(line_no, format!("bad header {line:?}")));
                };
                let regs = regs
                    .parse()
                    .map_err(|_| fail(line_no, format!("bad register count {regs:?}")))?;
                let count = count
                    .parse()
                    .map_err(|_| fail(line_no, format!("bad instruction count {count:?}")))?;
                header = Some((name.trim().to_string(), regs, count));
                continue;
            }
            if header.is_none() {
                return Err(fail(line_no, "instruction before header line".to_string()));
            }
            let (pc, body) = line
                .split_once(':')
                .ok_or_else(|| fail(line_no, format!("missing pc prefix in {line:?}")))?;
            let pc: usize = pc
                .trim()
                .parse()
                .map_err(|_| fail(line_no, format!("bad pc {pc:?}")))?;
            if pc != instructions.len() {
                return Err(fail(
                    line_no,
                    format!("pc {pc} out of order (expected {})", instructions.len()),
                ));
            }
            instructions.push(parse_inst(body.trim()).map_err(|m| fail(line_no, m))?);
        }
        let (name, registers, declared_len) =
            header.ok_or_else(|| fail(0, "missing header line".to_string()))?;
        if declared_len != instructions.len() {
            return Err(fail(
                0,
                format!(
                    "header declares {declared_len} instructions, found {}",
                    instructions.len()
                ),
            ));
        }
        Self::new(registers, instructions)
            .map(|p| p.with_name(name))
            .map_err(|e| fail(0, e.to_string()))
    }

    /// Per-opcode ALU instruction counts — the static instruction mix.
    #[must_use]
    pub fn op_histogram(&self) -> Vec<(tm_fpu::FpOp, usize)> {
        let mut counts: std::collections::BTreeMap<tm_fpu::FpOp, usize> =
            std::collections::BTreeMap::new();
        for inst in &self.instructions {
            if let VInst::Alu { op, .. } = inst {
                *counts.entry(*op).or_default() += 1;
            }
        }
        counts.into_iter().collect()
    }
}

/// The bracketed addressing text of a gather or scatter.
fn addr_text(addr: Addr) -> String {
    match addr {
        Addr::Indexed(ids) => format!("buf{ids}[gid]"),
        Addr::Gid => "gid".to_string(),
        Addr::Neighbour { dx, dy, width } => format!("nbr({dx},{dy},w{width})"),
    }
}

fn parse_reg(tok: &str) -> Result<VReg8, String> {
    tok.strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad register {tok:?}"))
}

fn parse_src(tok: &str) -> Result<Src, String> {
    if let Some(imm) = tok.strip_prefix('#') {
        imm.parse()
            .map(Src::Imm)
            .map_err(|_| format!("bad immediate {tok:?}"))
    } else {
        parse_reg(tok).map(Src::Reg)
    }
}

/// Parses the `buf{data}[{addr}]` operand shared by gathers and
/// scatters (the inverse of [`addr_text`]).
fn parse_buf_expr(tok: &str) -> Result<(BufferId, Addr), String> {
    let bad = || format!("bad buffer expression {tok:?}");
    let rest = tok.strip_prefix("buf").ok_or_else(bad)?;
    let (data, rest) = rest.split_once('[').ok_or_else(bad)?;
    let inner = rest.strip_suffix(']').ok_or_else(bad)?;
    let addr = if inner == "gid" {
        Addr::Gid
    } else if let Some(args) = inner.strip_prefix("nbr(").and_then(|a| a.strip_suffix(')')) {
        let [dx, dy, width] = args.split(',').collect::<Vec<_>>()[..] else {
            return Err(bad());
        };
        Addr::Neighbour {
            dx: dx.parse().map_err(|_| bad())?,
            dy: dy.parse().map_err(|_| bad())?,
            width: width
                .strip_prefix('w')
                .and_then(|w| w.parse().ok())
                .ok_or_else(bad)?,
        }
    } else {
        let ids = inner
            .strip_prefix("buf")
            .and_then(|r| r.strip_suffix("[gid]"))
            .ok_or_else(bad)?;
        Addr::Indexed(ids.parse().map_err(|_| bad())?)
    };
    Ok((data.parse().map_err(|_| bad())?, addr))
}

/// Parses one disassembled instruction body (everything after `pc: `).
fn parse_inst(body: &str) -> Result<VInst, String> {
    let (mnemonic, rest) = match body.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (body, ""),
    };
    let operands: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(", ").collect()
    };
    let want = |n: usize| {
        if operands.len() == n {
            Ok(())
        } else {
            Err(format!("{mnemonic} expects {n} operands, got {}", operands.len()))
        }
    };
    match mnemonic {
        "GATHER" => {
            want(2)?;
            let dst = parse_reg(operands[0])?;
            let (data, addr) = parse_buf_expr(operands[1])?;
            Ok(VInst::Gather { dst, data, addr })
        }
        "SCATTR" => {
            want(2)?;
            let (data, addr) = parse_buf_expr(operands[0])?;
            let src = parse_reg(operands[1])?;
            Ok(VInst::Scatter { src, data, addr })
        }
        "LANEID" => {
            want(1)?;
            Ok(VInst::LaneId { dst: parse_reg(operands[0])? })
        }
        "PUSHM" => {
            want(1)?;
            Ok(VInst::PushMask { mask: parse_reg(operands[0])? })
        }
        "POPM" => {
            want(0)?;
            Ok(VInst::PopMask)
        }
        "SHIFTL" => {
            want(3)?;
            let dst = parse_reg(operands[0])?;
            let src = parse_reg(operands[1])?;
            let offset = operands[2]
                .parse()
                .map_err(|_| format!("bad lane offset {:?}", operands[2]))?;
            Ok(VInst::LaneShift { dst, src, offset })
        }
        "LOOP" => {
            want(1)?;
            let count = operands[0]
                .parse()
                .map_err(|_| format!("bad loop count {:?}", operands[0]))?;
            Ok(VInst::Loop { count })
        }
        "ENDLOOP" => {
            want(0)?;
            Ok(VInst::EndLoop)
        }
        _ => {
            let op = *tm_fpu::ALL_OPS
                .iter()
                .find(|op| op.mnemonic() == mnemonic)
                .ok_or_else(|| format!("unknown mnemonic {mnemonic:?}"))?;
            if operands.is_empty() {
                return Err(format!("{mnemonic} is missing its destination"));
            }
            let dst = parse_reg(operands[0])?;
            let srcs = operands[1..]
                .iter()
                .map(|tok| parse_src(tok))
                .collect::<Result<Vec<Src>, String>>()?;
            Ok(VInst::Alu { op, dst, srcs })
        }
    }
}

/// The buffers a program runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct Bindings {
    buffers: Vec<Vec<f32>>,
}

impl Bindings {
    /// Wraps a set of buffers; `BufferId` N is `buffers[N]`.
    #[must_use]
    pub fn new(buffers: Vec<Vec<f32>>) -> Self {
        Self { buffers }
    }

    /// Read access to buffer `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn buffer(&self, id: BufferId) -> &[f32] {
        &self.buffers[id]
    }

    /// Write access to buffer `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn buffer_mut(&mut self, id: BufferId) -> &mut Vec<f32> {
        &mut self.buffers[id]
    }

    /// Number of bound buffers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether no buffer is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The element of buffer `data` that `addr` selects for work-item
    /// `gid`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer id or an index-buffer position is out of
    /// range.
    pub(crate) fn element(&self, data: BufferId, addr: Addr, gid: usize) -> usize {
        match addr {
            Addr::Indexed(ids) => self.buffers[ids][gid] as usize,
            Addr::Gid => gid,
            Addr::Neighbour { dx, dy, width } => {
                let grid = Grid::new(width, self.buffers[data].len());
                grid.neighbour(gid % grid.width, gid / grid.width, dx, dy)
            }
        }
    }

    /// Applies a raw journaled write.
    pub(crate) fn apply_write(&mut self, data: BufferId, index: usize, value: f32) {
        self.buffers[data][index] = value;
    }
}

/// A row-major grid over one buffer, for [`Addr::Neighbour`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    pub(crate) width: usize,
    rows: usize,
}

impl Grid {
    /// The grid `width` elements wide over a buffer of `len` elements.
    pub(crate) fn new(width: u32, len: usize) -> Self {
        let width = width as usize;
        Self {
            width,
            rows: (len / width).max(1),
        }
    }

    /// The element at the clamp-to-edge `(dx, dy)` neighbour of `(x, y)`.
    pub(crate) fn neighbour(self, x: usize, y: usize, dx: i8, dy: i8) -> usize {
        let cx = x.saturating_add_signed(isize::from(dx)).min(self.width - 1);
        let cy = y.saturating_add_signed(isize::from(dy)).min(self.rows - 1);
        cy * self.width + cx
    }
}

/// Dependence-aware refinement of the engines' buffer-level hazard
/// check: whether every scatter→read dependence in `program` is
/// **lane-private**, i.e. each location a work-item reads back (through
/// a gather) is written only by that same work-item's scatters.
///
/// The buffer-level check (`scattered buffer is also gathered`) is
/// conservative: an in-place stage program — like the FWT butterfly,
/// whose work-items own disjoint `(lo, hi)` element pairs — trips it
/// even though no lane ever observes another lane's write, forcing a
/// sequential fallback. This content-level analysis resolves the actual
/// addresses instead:
///
/// - a scattered buffer used as an *index* buffer anywhere is unsafe
///   (its contents, and therefore the addressing, change mid-run, so the
///   initial contents prove nothing);
/// - otherwise the per-location writer sets are computed from the
///   addressing, and every gathered location's writers must be a subset
///   of the gathering work-item itself.
///
/// When this holds, snapshot-bindings execution with journaled scatter
/// replay is bit-identical to the sequential interleaving: each lane
/// sees exactly its own writes (per-lane program order is preserved by
/// every engine), locations nobody scatters keep their snapshot value,
/// and write/write conflicts between lanes are resolved by the
/// deterministic dispatch-order replay.
///
/// `global_size` is the dispatched ND-range; index buffers shorter than
/// it are reported unsafe (the run would panic anyway).
#[must_use]
pub fn hazards_are_lane_private(
    program: &VProgram,
    bindings: &Bindings,
    global_size: usize,
) -> bool {
    use std::collections::{BTreeMap, BTreeSet};

    let scattered: BTreeSet<BufferId> = program
        .instructions()
        .iter()
        .filter_map(|inst| match inst {
            VInst::Scatter { data, .. } => Some(*data),
            _ => None,
        })
        .collect();
    if scattered.is_empty() {
        return true;
    }
    // Addressing must be static for the writer-set analysis to be sound.
    // Masks, loops and lane shifts never touch buffers: masked scatters
    // only shrink the writer sets computed below (which assume every gid
    // writes), loops repeat the same addresses, and a lane shift moves
    // values within one wavefront, which every engine steps as a unit —
    // all stay conservative-safe.
    let accesses = || {
        program.instructions().iter().filter_map(|inst| match inst {
            VInst::Gather { data, addr, .. } => Some((false, *data, *addr)),
            VInst::Scatter { data, addr, .. } => Some((true, *data, *addr)),
            _ => None,
        })
    };
    for (_, _, addr) in accesses() {
        if let Some(ids) = addr.index_buffer() {
            if scattered.contains(&ids) || bindings.buffer(ids).len() < global_size {
                return false;
            }
        }
    }

    // Per-location writer sets, collapsed to what the subset test needs
    // and kept flat — one slot per location of the scattered buffer —
    // because this analysis runs per launch on the parallel engine's
    // hot path (`NONE` = unwritten, `MANY` = more than one writer,
    // anything else = the single writer's gid).
    const NONE: usize = usize::MAX;
    const MANY: usize = usize::MAX - 1;
    let mut writer_sets: BTreeMap<BufferId, Vec<usize>> = BTreeMap::new();
    for (_, data, addr) in accesses().filter(|(write, ..)| *write) {
        let len = bindings.buffer(data).len();
        let set = writer_sets.entry(data).or_insert_with(|| vec![NONE; len]);
        for gid in 0..global_size {
            let Some(w) = set.get_mut(bindings.element(data, addr, gid)) else {
                // An out-of-range scatter index: no engine order is
                // provably safe, give up.
                return false;
            };
            if *w != gid {
                *w = if *w == NONE { gid } else { MANY };
            }
        }
    }
    for (_, data, addr) in accesses().filter(|(write, ..)| !*write) {
        let Some(set) = writer_sets.get(&data) else {
            continue;
        };
        for gid in 0..global_size {
            match set.get(bindings.element(data, addr, gid)).copied().unwrap_or(NONE) {
                NONE => {}
                w if w == gid => {}
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_fpu::FpOp;

    #[test]
    fn validation_rejects_bad_registers() {
        let err = VProgram::new(
            1,
            vec![VInst::Alu {
                op: FpOp::Neg,
                dst: 1,
                srcs: vec![Src::Reg(0)],
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let err = VProgram::new(
            2,
            vec![VInst::Alu {
                op: FpOp::Add,
                dst: 0,
                srcs: vec![Src::Reg(0)],
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("expects 2 operands"));
    }

    #[test]
    fn disassembly_covers_every_instruction_form() {
        let p = VProgram::new(
            2,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(1) },
                VInst::Alu {
                    op: FpOp::MulAdd,
                    dst: 1,
                    srcs: vec![Src::Reg(1), Src::Imm(2.0), Src::Reg(0)],
                },
                VInst::Scatter { src: 1, data: 2, addr: Addr::Indexed(1) },
            ],
        )
        .unwrap()
        .with_name("demo");
        let listing = p.disassemble();
        assert!(listing.starts_with("; demo: 2 registers, 4 instructions"));
        assert!(listing.contains("LANEID r0"));
        assert!(listing.contains("GATHER r1, buf0[buf1[gid]]"));
        assert!(listing.contains("MULADD r1, r1, #2, r0"));
        assert!(listing.contains("SCATTR buf2[buf1[gid]], r1"));
        assert_eq!(listing.lines().count(), 5); // header + 4 instructions
    }

    #[test]
    fn validation_rejects_unmatched_pop() {
        let err = VProgram::new(1, vec![VInst::PopMask]).unwrap_err();
        assert!(err.to_string().contains("POPM without a matching PUSHM"));
    }

    #[test]
    fn validation_rejects_malformed_loops() {
        let msg = |insts: Vec<VInst>| VProgram::new(1, insts).unwrap_err().to_string();
        assert!(msg(vec![VInst::EndLoop]).contains("without a matching LOOP"));
        assert!(msg(vec![VInst::Loop { count: 2 }]).contains("never closed"));
        assert!(msg(vec![VInst::Loop { count: 0 }, VInst::EndLoop]).contains("at least 1"));
        // A body may not pop a mask pushed outside it, nor leave one pushed.
        let unbalanced = vec![
            VInst::PushMask { mask: 0 },
            VInst::Loop { count: 2 },
            VInst::PopMask,
            VInst::EndLoop,
        ];
        assert!(msg(unbalanced).contains("POPM without"));
        let leaked = vec![VInst::Loop { count: 2 }, VInst::PushMask { mask: 0 }, VInst::EndLoop];
        assert!(msg(leaked).contains("unbalanced"));
        let zero_width = vec![VInst::Gather {
            dst: 0,
            data: 0,
            addr: Addr::Neighbour { dx: 1, dy: 0, width: 0 },
        }];
        assert!(msg(zero_width).contains("grid width"));
    }

    #[test]
    fn dynamic_len_multiplies_loop_bodies() {
        let neg = || VInst::Alu { op: FpOp::Neg, dst: 0, srcs: vec![Src::Reg(0)] };
        let p = VProgram::new(
            1,
            vec![
                neg(),
                VInst::Loop { count: 3 },
                neg(),
                VInst::Loop { count: 2 },
                neg(),
                VInst::EndLoop,
                VInst::EndLoop,
                neg(),
            ],
        )
        .unwrap();
        assert_eq!(p.dynamic_len(), 1 + 3 * (1 + 2) + 1);
    }

    /// One program exercising every instruction form the listing can
    /// carry, including the masking, cross-lane, loop and addressing
    /// extensions.
    fn all_forms() -> VProgram {
        VProgram::new(
            3,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(1) },
                VInst::Loop { count: 4 },
                VInst::Alu {
                    op: FpOp::MulAdd,
                    dst: 1,
                    srcs: vec![Src::Reg(1), Src::Imm(2.5), Src::Reg(0)],
                },
                VInst::EndLoop,
                VInst::LaneShift { dst: 2, src: 1, offset: -1 },
                VInst::Gather {
                    dst: 2,
                    data: 0,
                    addr: Addr::Neighbour { dx: -1, dy: 1, width: 8 },
                },
                VInst::PushMask { mask: 0 },
                VInst::Scatter { src: 1, data: 2, addr: Addr::Gid },
                VInst::PopMask,
            ],
        )
        .unwrap()
        .with_name("all_forms")
    }

    #[test]
    fn parse_round_trips_every_instruction_form() {
        let p = all_forms();
        let listing = p.disassemble();
        assert!(listing.contains("SHIFTL r2, r1, -1"));
        assert!(listing.contains("PUSHM  r0"));
        assert!(listing.contains("POPM"));
        assert!(listing.contains("LOOP   4"));
        assert!(listing.contains("ENDLOOP"));
        assert!(listing.contains("GATHER r2, buf0[nbr(-1,1,w8)]"));
        assert!(listing.contains("SCATTR buf2[gid], r1"));
        assert_eq!(VProgram::parse(&listing).unwrap(), p);
    }

    #[test]
    fn parse_round_trips_random_programs() {
        // A deterministic LCG keeps the test hermetic; 64 random
        // programs cover every form with varied registers, immediates
        // (including negatives and fractions), offsets and addressing.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..64 {
            let registers = 1 + (next() % 8) as usize;
            let reg = |n: u32| (n % registers as u32) as VReg8;
            let addr = |k: u32, x: u32, y: u32| match k % 3 {
                0 => Addr::Indexed((x % 4) as BufferId),
                1 => Addr::Gid,
                _ => Addr::Neighbour {
                    dx: (x % 3) as i8 - 1,
                    dy: (y % 3) as i8 - 1,
                    width: 1 + (x ^ y) % 64,
                },
            };
            let mut insts = Vec::new();
            let mut masks = 0usize;
            let mut loops = 0usize;
            for _ in 0..(1 + next() % 12) {
                match next() % 7 {
                    0 => insts.push(VInst::LaneId { dst: reg(next()) }),
                    1 => insts.push(VInst::Gather {
                        dst: reg(next()),
                        data: (next() % 4) as BufferId,
                        addr: addr(next(), next(), next()),
                    }),
                    2 => insts.push(VInst::Scatter {
                        src: reg(next()),
                        data: (next() % 4) as BufferId,
                        addr: addr(next(), next(), next()),
                    }),
                    3 => insts.push(VInst::LaneShift {
                        dst: reg(next()),
                        src: reg(next()),
                        offset: (next() % 7) as i32 - 3,
                    }),
                    4 => {
                        insts.push(VInst::PushMask { mask: reg(next()) });
                        masks += 1;
                    }
                    5 if masks == 0 => {
                        insts.push(VInst::Loop { count: 1 + next() % 5 });
                        loops += 1;
                    }
                    _ => {
                        let op = tm_fpu::ALL_OPS[next() as usize % tm_fpu::ALL_OPS.len()];
                        let srcs = (0..op.arity())
                            .map(|_| {
                                if next() % 2 == 0 {
                                    Src::Reg(reg(next()))
                                } else {
                                    Src::Imm((next() as f32 / 977.0) - 1000.0)
                                }
                            })
                            .collect();
                        insts.push(VInst::Alu {
                            op,
                            dst: reg(next()),
                            srcs,
                        });
                    }
                }
            }
            insts.extend(std::iter::repeat_n(VInst::PopMask, masks));
            insts.extend(std::iter::repeat_n(VInst::EndLoop, loops));
            let p = VProgram::new(registers, insts).unwrap();
            assert_eq!(VProgram::parse(&p.disassemble()).unwrap(), p, "{}", p.disassemble());
        }
    }

    #[test]
    fn parse_rejects_malformed_listings() {
        assert!(VProgram::parse("").is_err());
        assert!(VProgram::parse("0: LANEID r0").is_err()); // missing header
        let good = all_forms().disassemble();
        assert!(VProgram::parse(&good.replace("GATHER", "GOBBLE")).is_err());
        assert!(VProgram::parse(&good.replace(": 3 registers", ": 1 registers")).is_err());
        assert!(VProgram::parse(&good.replace("10 instructions", "12 instructions")).is_err());
        assert!(VProgram::parse(&good.replace("w8", "w")).is_err());
        assert!(VProgram::parse(&good.replace("ENDLOOP", "POPM")).is_err());
    }

    #[test]
    fn op_histogram_counts_alu_only() {
        let p = VProgram::new(
            1,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Alu {
                    op: FpOp::Neg,
                    dst: 0,
                    srcs: vec![Src::Reg(0)],
                },
                VInst::Alu {
                    op: FpOp::Neg,
                    dst: 0,
                    srcs: vec![Src::Reg(0)],
                },
            ],
        )
        .unwrap();
        assert_eq!(p.op_histogram(), vec![(FpOp::Neg, 2)]);
    }

    #[test]
    fn bindings_resolve_every_addressing_form() {
        let mut b = Bindings::new(vec![vec![10.0, 20.0, 30.0], vec![2.0, 0.0, 1.0]]);
        assert_eq!(b.element(0, Addr::Indexed(1), 0), 2);
        assert_eq!(b.element(0, Addr::Gid, 1), 1);
        b.apply_write(0, b.element(0, Addr::Indexed(1), 1), 99.0);
        assert_eq!(b.buffer(0)[0], 99.0);
    }

    #[test]
    fn neighbour_addressing_clamps_at_the_borders() {
        // A 4×3 grid: gid = 4y + x.
        let b = Bindings::new(vec![vec![0.0; 12]]);
        let at = |gid, dx, dy| b.element(0, Addr::Neighbour { dx, dy, width: 4 }, gid);
        assert_eq!(at(0, -1, -1), 0); // top-left clamps to itself
        assert_eq!(at(5, -1, -1), 0); // (1,1) → (0,0)
        assert_eq!(at(11, 1, 1), 11); // bottom-right clamps to itself
        assert_eq!(at(3, 1, 0), 3); // right edge
        assert_eq!(at(8, 0, 1), 8); // bottom edge
        assert_eq!(at(5, 1, 1), 10); // interior
    }

    /// An in-place stage program: gather `buf0[buf1[gid]]`, transform,
    /// scatter back through `buf2[gid]` — the FWT butterfly shape.
    fn in_place_stage() -> VProgram {
        VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Alu {
                    op: FpOp::Neg,
                    dst: 0,
                    srcs: vec![Src::Reg(0)],
                },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Indexed(2) },
            ],
        )
        .unwrap()
    }

    #[test]
    fn lane_private_hazard_accepted_for_disjoint_index_pairs() {
        // Work-item g reads location g and writes location g: every
        // gathered location's sole writer is the gatherer itself.
        let n = 8;
        let idx: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b = Bindings::new(vec![vec![1.0; n], idx.clone(), idx]);
        assert!(hazards_are_lane_private(&in_place_stage(), &b, n));
    }

    #[test]
    fn cross_lane_read_after_write_rejected() {
        // Work-item g reads location g but writes location g+1 (mod n):
        // lane g gathers a location lane g−1 scatters.
        let n = 8;
        let read_idx: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let write_idx: Vec<f32> = (0..n).map(|i| ((i + 1) % n) as f32).collect();
        let b = Bindings::new(vec![vec![1.0; n], read_idx, write_idx]);
        assert!(!hazards_are_lane_private(&in_place_stage(), &b, n));
    }

    #[test]
    fn computed_addressing_is_analysed_like_index_buffers() {
        // In place through `gid`: lane-private.
        let own = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Gid },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Gid },
            ],
        )
        .unwrap();
        let b = Bindings::new(vec![vec![1.0; 16]]);
        assert!(hazards_are_lane_private(&own, &b, 16));
        // Reading a neighbour another lane writes in place: not.
        let stencil = VProgram::new(
            1,
            vec![
                VInst::Gather {
                    dst: 0,
                    data: 0,
                    addr: Addr::Neighbour { dx: 1, dy: 0, width: 4 },
                },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Gid },
            ],
        )
        .unwrap();
        assert!(!hazards_are_lane_private(&stencil, &b, 16));
    }

    #[test]
    fn write_write_conflicts_alone_stay_lane_private() {
        // Every work-item writes location 0 but nobody reads it back:
        // the conflict is resolved by deterministic dispatch-order
        // replay, so the program stays parallelizable.
        let n = 4;
        let p = VProgram::new(
            1,
            vec![
                VInst::LaneId { dst: 0 },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Indexed(1) },
            ],
        )
        .unwrap();
        let b = Bindings::new(vec![vec![0.0; n], vec![0.0; n]]);
        assert!(hazards_are_lane_private(&p, &b, n));
    }

    #[test]
    fn scattered_index_buffer_rejected() {
        // buf1 both addresses the gather and receives a scatter: the
        // addressing mutates mid-run, so the initial contents prove
        // nothing and the analysis must bail.
        let n = 4;
        let p = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Scatter { src: 0, data: 1, addr: Addr::Indexed(2) },
            ],
        )
        .unwrap();
        let idx: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b = Bindings::new(vec![vec![1.0; n], idx.clone(), idx]);
        assert!(!hazards_are_lane_private(&p, &b, n));
    }

    #[test]
    fn short_index_buffer_rejected() {
        // An index buffer shorter than the ND-range cannot prove lane
        // privacy (the run would panic on the out-of-range gid anyway).
        let n = 8;
        let idx: Vec<f32> = (0..n - 1).map(|i| i as f32).collect();
        let b = Bindings::new(vec![vec![1.0; n], idx.clone(), idx]);
        assert!(!hazards_are_lane_private(&in_place_stage(), &b, n));
    }

    #[test]
    fn fwt_butterfly_indices_are_lane_private() {
        // The real shape that motivated the refinement: work-item g of a
        // span-s stage owns the disjoint pair (lo, lo+s) with
        // lo = 2s·(g div s) + (g mod s) — it gathers and scatters
        // exactly its own two locations.
        let n = 16usize;
        let span = 4usize;
        let pairs = n / 2;
        let lo: Vec<f32> = (0..pairs)
            .map(|g| (2 * span * (g / span) + g % span) as f32)
            .collect();
        let hi: Vec<f32> = lo.iter().map(|l| l + span as f32).collect();
        let p = VProgram::new(
            2,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(2) },
                VInst::Alu {
                    op: FpOp::Add,
                    dst: 0,
                    srcs: vec![Src::Reg(0), Src::Reg(1)],
                },
                VInst::Scatter { src: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Scatter { src: 1, data: 0, addr: Addr::Indexed(2) },
            ],
        )
        .unwrap();
        let b = Bindings::new(vec![vec![1.0; n], lo, hi]);
        assert!(hazards_are_lane_private(&p, &b, pairs));
    }
}
