//! Typed buffer-interface descriptors for the IR kernels.
//!
//! A [`KernelSignature`] names every buffer a [`VProgram`] binds, states
//! the role the program is allowed to use it in, and carries the register
//! budget the builder promised. [`KernelSignature::validate`] checks the
//! program against the descriptor once at build time, so a builder that
//! drifts from its declared interface (a gather from an output, a scatter
//! through a non-index buffer, a register leak) fails loudly instead of
//! silently corrupting a launch.

use std::fmt;

use tm_sim::program::{Addr, Bindings, BufferId, VInst, VProgram};

/// How a program may use one bound buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// Per-work-item data read through gathers only.
    Input,
    /// Data written through scatters only.
    Output,
    /// Both gathered and scattered (in-place kernels).
    InOut,
    /// One f32 element position per work-item, used as
    /// [`Addr::Indexed`] gather/scatter addressing and never read as
    /// data.
    Indices,
    /// Read-only per-work-item broadcast of a launch- or
    /// wavefront-uniform parameter (treated as [`BufferRole::Input`] by
    /// validation; the distinction documents where value locality
    /// comes from).
    Uniform,
}

impl BufferRole {
    /// Whether a gather may read this buffer as data.
    #[must_use]
    pub fn gatherable(self) -> bool {
        matches!(self, Self::Input | Self::InOut | Self::Uniform)
    }

    /// Whether a scatter may write this buffer.
    #[must_use]
    pub fn scatterable(self) -> bool {
        matches!(self, Self::Output | Self::InOut)
    }
}

/// One named buffer slot of a kernel's interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferBinding {
    /// The buffer id the program refers to.
    pub id: usize,
    /// The role the program may use it in.
    pub role: BufferRole,
    /// A human-readable slot name (diagnostics only).
    pub name: &'static str,
}

impl BufferBinding {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(id: usize, role: BufferRole, name: &'static str) -> Self {
        Self { id, role, name }
    }
}

/// The declared interface of one IR kernel build.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSignature {
    /// Kernel name; the program, its launch spans and its telemetry
    /// series carry it.
    pub name: &'static str,
    /// One entry per bound buffer, covering ids `0..bindings.len()`.
    pub bindings: Vec<BufferBinding>,
    /// Maximum vector registers the program may declare.
    pub register_budget: usize,
    /// The buffer ids the host reads results from, in output order.
    pub outputs: Vec<usize>,
}

/// A program/bindings pair that contradicts its signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureError(String);

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signature violation: {}", self.0)
    }
}

impl std::error::Error for SignatureError {}

impl KernelSignature {
    /// Checks `program` and `bindings` against this descriptor.
    ///
    /// Verified properties:
    /// - every bound buffer is described exactly once, ids `0..len`;
    /// - the program's register count fits the budget;
    /// - gathers read only gatherable data, and scatters write only
    ///   scatterable data, addressed through `Indices` buffers or
    ///   computed addressing (`gid`, grid neighbours);
    /// - every declared output is scatterable and actually written;
    /// - no described buffer goes entirely unused by the program.
    ///
    /// # Errors
    ///
    /// Returns a [`SignatureError`] naming the first violated property.
    pub fn validate(&self, program: &VProgram, bindings: &Bindings) -> Result<(), SignatureError> {
        let err = |msg: String| Err(SignatureError(msg));
        if self.bindings.len() != bindings.len() {
            return err(format!(
                "{}: {} buffers bound but {} described",
                self.name,
                bindings.len(),
                self.bindings.len()
            ));
        }
        let mut roles = vec![None; bindings.len()];
        for b in &self.bindings {
            if b.id >= roles.len() {
                return err(format!("{}: slot {} ({}) out of range", self.name, b.id, b.name));
            }
            if roles[b.id].replace(b.role).is_some() {
                return err(format!("{}: slot {} described twice", self.name, b.id));
            }
        }
        let role = |id: usize| roles[id].expect("every id described exactly once");
        if program.registers() > self.register_budget {
            return err(format!(
                "{}: {} registers exceed budget {}",
                self.name,
                program.registers(),
                self.register_budget
            ));
        }

        let mut used = vec![false; bindings.len()];
        let mut scattered = vec![false; bindings.len()];
        for (pc, inst) in program.instructions().iter().enumerate() {
            let (gather, data, addr) = match inst {
                VInst::Gather { data, addr, .. } => (true, *data, *addr),
                VInst::Scatter { data, addr, .. } => (false, *data, *addr),
                _ => continue,
            };
            let (verb, preposition, access) = if gather {
                ("gathers", "from", "reads")
            } else {
                ("scatters", "into", "writes")
            };
            let ids: Vec<BufferId> = std::iter::once(data).chain(addr.index_buffer()).collect();
            for id in ids {
                if id >= used.len() {
                    return err(format!("{}: pc {pc} {access} unbound buffer {id}", self.name));
                }
                used[id] = true;
            }
            let allowed = if gather { role(data).gatherable() } else { role(data).scatterable() };
            if !allowed {
                return err(format!(
                    "{}: pc {pc} {verb} {preposition} {:?} buffer {data}",
                    self.name,
                    role(data)
                ));
            }
            if let Addr::Indexed(ids) = addr {
                if role(ids) != BufferRole::Indices {
                    return err(format!(
                        "{}: pc {pc} {verb} through non-index buffer {ids}",
                        self.name
                    ));
                }
            }
            if !gather {
                scattered[data] = true;
            }
        }

        if self.outputs.is_empty() {
            return err(format!("{}: no outputs declared", self.name));
        }
        for &out in &self.outputs {
            if out >= used.len() {
                return err(format!("{}: output {out} out of range", self.name));
            }
            if !role(out).scatterable() {
                return err(format!(
                    "{}: output {out} has non-writable role {:?}",
                    self.name,
                    role(out)
                ));
            }
            if !scattered[out] {
                return err(format!("{}: output {out} is never scattered", self.name));
            }
        }
        for b in &self.bindings {
            if !used[b.id] {
                return err(format!("{}: slot {} ({}) is unused", self.name, b.id, b.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_fpu::FpOp;
    use tm_sim::program::Src;

    fn tiny() -> (VProgram, Bindings) {
        let program = VProgram::new(
            1,
            vec![
                VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
                VInst::Alu { op: FpOp::Add, dst: 0, srcs: vec![Src::Reg(0), Src::Imm(1.0)] },
                VInst::Scatter { src: 0, data: 2, addr: Addr::Indexed(1) },
            ],
        )
        .unwrap();
        let bindings = Bindings::new(vec![
            vec![1.0, 2.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
        ]);
        (program, bindings)
    }

    fn tiny_signature() -> KernelSignature {
        KernelSignature {
            name: "tiny",
            bindings: vec![
                BufferBinding::new(0, BufferRole::Input, "in"),
                BufferBinding::new(1, BufferRole::Indices, "idx"),
                BufferBinding::new(2, BufferRole::Output, "out"),
            ],
            register_budget: 1,
            outputs: vec![2],
        }
    }

    #[test]
    fn well_formed_pair_validates() {
        let (program, bindings) = tiny();
        tiny_signature().validate(&program, &bindings).unwrap();
    }

    #[test]
    fn register_budget_is_enforced() {
        let (program, bindings) = tiny();
        let mut sig = tiny_signature();
        sig.register_budget = 0;
        let e = sig.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("budget"), "{e}");
    }

    #[test]
    fn gather_from_output_is_rejected() {
        let (program, bindings) = tiny();
        let mut sig = tiny_signature();
        sig.bindings[0].role = BufferRole::Output;
        let e = sig.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("gathers from"), "{e}");
    }

    #[test]
    fn scatter_into_input_is_rejected() {
        let (program, bindings) = tiny();
        let mut sig = tiny_signature();
        sig.bindings[2].role = BufferRole::Uniform;
        sig.outputs.clear();
        sig.outputs.push(2);
        let e = sig.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("scatters into"), "{e}");
    }

    #[test]
    fn unwritten_output_is_rejected() {
        let (program, bindings) = tiny();
        let mut sig = tiny_signature();
        sig.bindings[0].role = BufferRole::InOut;
        sig.outputs = vec![0];
        let e = sig.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("never scattered"), "{e}");
    }

    #[test]
    fn computed_addressing_needs_no_index_buffer() {
        let program = VProgram::new(
            1,
            vec![
                VInst::Gather {
                    dst: 0,
                    data: 0,
                    addr: Addr::Neighbour { dx: -1, dy: 1, width: 2 },
                },
                VInst::Scatter { src: 0, data: 1, addr: Addr::Gid },
            ],
        )
        .unwrap();
        let bindings = Bindings::new(vec![vec![1.0; 4], vec![0.0; 4]]);
        let sig = KernelSignature {
            name: "stencil",
            bindings: vec![
                BufferBinding::new(0, BufferRole::Input, "in"),
                BufferBinding::new(1, BufferRole::Output, "out"),
            ],
            register_budget: 1,
            outputs: vec![1],
        };
        sig.validate(&program, &bindings).unwrap();
        // An indexed access still needs an `Indices` buffer.
        let mut bad = tiny_signature();
        bad.bindings[1].role = BufferRole::Input;
        let (program, bindings) = tiny();
        let e = bad.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("non-index buffer"), "{e}");
    }

    #[test]
    fn unused_and_miscounted_slots_are_rejected() {
        let (program, bindings) = tiny();
        let mut sig = tiny_signature();
        sig.bindings.pop();
        let e = sig.validate(&program, &bindings).unwrap_err();
        assert!(e.to_string().contains("described"), "{e}");

        let bindings4 = Bindings::new(vec![
            bindings.buffer(0).to_vec(),
            bindings.buffer(1).to_vec(),
            bindings.buffer(2).to_vec(),
            vec![0.0],
        ]);
        let mut sig = tiny_signature();
        sig.bindings.push(BufferBinding::new(3, BufferRole::Input, "dead"));
        let e = sig.validate(&program, &bindings4).unwrap_err();
        assert!(e.to_string().contains("unused"), "{e}");
    }
}
