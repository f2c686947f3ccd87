//! All seven workloads expressed as [`VProgram`]s — the only kernel form.
//!
//! Each builder emits the strength-reduced instruction sequence a GPU
//! compiler would for the AMD APP SDK kernel, lowered once into a
//! [`tm_sim::CompiledProgram`] and run under
//! [`tm_sim::Device::run_program`]'s wavefront-interleaving scheduler.
//! Under exact matching every builder reproduces its scalar golden
//! (`*_reference`) bit for bit; the image kernels stay bit-identical at
//! any interleaving depth (reuse is transparent, and instruction order
//! only shapes the FIFO streams, never the values).
//!
//! Every builder declares its buffer interface through a
//! [`KernelSignature`], validates the program against it at build time
//! and names the program after it, so launch spans and telemetry series
//! read `launch:sobel`, `launch:haar_level`, ….

use crate::binomial::OptionSpec;
use crate::black_scholes::OptionBatch;
use crate::eigenvalue::Tridiagonal;
use crate::signature::{BufferBinding, BufferRole, KernelSignature};
use tm_fpu::FpOp;
use tm_image::GrayImage;
use tm_sim::program::{Addr, Bindings, Src, VInst, VProgram};
use tm_sim::{CompiledProgram, Device};

const LOG2_E: f32 = std::f32::consts::LOG2_E;
const LN_2: f32 = std::f32::consts::LN_2;

/// One ready-to-run IR kernel build: the program, its buffers, and the
/// typed interface descriptor tying the two together.
///
/// (Named for the image kernels that first used it; the signal and
/// finance builders below share the same bundle shape.)
#[derive(Debug, Clone, PartialEq)]
pub struct ImageProgram {
    /// The vector program, named after `signature.name`.
    pub program: VProgram,
    /// Its buffer bindings.
    pub bindings: Bindings,
    /// The primary output buffer id (`signature.outputs[0]`).
    pub output: usize,
    /// Work-items to dispatch (one per pixel / pair / option / lane).
    pub global_size: usize,
    /// The declared buffer interface, already validated.
    pub signature: KernelSignature,
}

impl ImageProgram {
    /// Moves the primary output buffer out of the bindings (leaving it
    /// empty) — the host read-back after a launch.
    #[must_use]
    pub fn take_output(&mut self) -> Vec<f32> {
        std::mem::take(self.bindings.buffer_mut(self.output))
    }
}

fn alu(op: FpOp, dst: u8, srcs: Vec<Src>) -> VInst {
    VInst::Alu { op, dst, srcs }
}

fn r(reg: u8) -> Src {
    Src::Reg(reg)
}

fn im(v: f32) -> Src {
    Src::Imm(v)
}

/// Assembles a validated bundle; panics if the builder drifted from its
/// declared signature (a builder bug, never an input error).
fn bundle(
    program: VProgram,
    bindings: Bindings,
    global_size: usize,
    signature: KernelSignature,
) -> ImageProgram {
    signature
        .validate(&program, &bindings)
        .expect("IR builder must satisfy its declared signature");
    ImageProgram {
        program: program.with_name(signature.name),
        bindings,
        output: signature.outputs[0],
        global_size,
        signature,
    }
}

/// The shared image-filter interface: input pixels, output pixels.
fn image_signature(name: &'static str, registers: usize) -> KernelSignature {
    KernelSignature {
        name,
        bindings: vec![
            BufferBinding::new(0, BufferRole::Input, "pixels"),
            BufferBinding::new(1, BufferRole::Output, "filtered"),
        ],
        register_budget: registers,
        outputs: vec![1],
    }
}

/// Gathers the clamp-to-edge 3×3 taps of `image` (pixels in buffer 0)
/// into registers `0..taps.len()`, in order.
fn gather_taps(image: &GrayImage, taps: &[(i8, i8)]) -> Vec<VInst> {
    let width = u32::try_from(image.width()).expect("image width fits u32");
    taps.iter()
        .enumerate()
        .map(|(t, &(dx, dy))| VInst::Gather {
            dst: t as u8,
            data: 0,
            addr: Addr::Neighbour { dx, dy, width },
        })
        .collect()
}

/// Builds the Sobel filter as a vector program over `image`.
///
/// One work-item per pixel computes the 3×3 gradient magnitude
/// `min(√(gx² + gy²), 255)` in the strength-reduced form a GPU compiler
/// emits (±1/±2 weights become SUB/ADD chains, `2x = x + x`, so no
/// weight constants reach the FPU operand stream): 6 SUB, 6 ADD, MUL,
/// MULADD, SQRT, MIN, FP2INT per pixel.
///
/// # Examples
///
/// ```
/// use tm_image::{sobel_reference, synth, GrayImage};
/// use tm_kernels::ir::sobel_program;
/// use tm_sim::{Device, DeviceConfig};
///
/// let image = synth::face(32, 32, 1);
/// let mut ip = sobel_program(&image);
/// let mut device = Device::new(DeviceConfig::default());
/// device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 4);
/// let out = GrayImage::from_vec(32, 32, ip.take_output());
/// assert_eq!(out.as_slice(), sobel_reference(&image).as_slice());
/// ```
#[must_use]
pub fn sobel_program(image: &GrayImage) -> ImageProgram {
    let n = image.len();
    // Tap order: ul, ur, l, r, dl, dr, u, d → registers 0..8.
    let mut instructions = gather_taps(
        image,
        &[(-1, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (1, 1), (0, -1), (0, 1)],
    );
    // Registers: 0 ul, 1 ur, 2 l, 3 r, 4 dl, 5 dr, 6 u, 7 d;
    // 8 a, 9 b, 10 c, 11 d', 12 e, 13 f; 8 reused for gx, 11 for gy;
    // 14 gx², 15 mag/out.
    instructions.extend([
        alu(FpOp::Sub, 8, vec![r(1), r(0)]),  // a = ur − ul
        alu(FpOp::Sub, 9, vec![r(3), r(2)]),  // b = r − l
        alu(FpOp::Sub, 10, vec![r(5), r(4)]), // c = dr − dl
        alu(FpOp::Sub, 11, vec![r(4), r(0)]), // d' = dl − ul
        alu(FpOp::Sub, 12, vec![r(7), r(6)]), // e = d − u
        alu(FpOp::Sub, 13, vec![r(5), r(1)]), // f = dr − ur
        alu(FpOp::Add, 8, vec![r(8), r(9)]),  // gx = a + b
        alu(FpOp::Add, 8, vec![r(8), r(9)]),  // gx += b
        alu(FpOp::Add, 8, vec![r(8), r(10)]), // gx += c
        alu(FpOp::Add, 11, vec![r(11), r(12)]), // gy = d' + e
        alu(FpOp::Add, 11, vec![r(11), r(12)]), // gy += e
        alu(FpOp::Add, 11, vec![r(11), r(13)]), // gy += f
        alu(FpOp::Mul, 14, vec![r(8), r(8)]), // gx²
        alu(FpOp::MulAdd, 14, vec![r(11), r(11), r(14)]), // m² = gy² + gx²
        alu(FpOp::Sqrt, 15, vec![r(14)]),
        alu(FpOp::Min, 15, vec![r(15), Src::Imm(255.0)]),
        // uchar write-out: FLT_TO_INT truncation (the paper's FP2INT —
        // one of the two highest-hit-rate units in Fig. 8).
        alu(FpOp::FpToInt, 15, vec![r(15)]),
        VInst::Scatter { src: 15, data: 1, addr: Addr::Gid },
    ]);
    bundle(
        VProgram::new(16, instructions).expect("sobel IR is well-formed"),
        Bindings::new(vec![image.as_slice().to_vec(), vec![0.0; n]]),
        n,
        image_signature("sobel", 16),
    )
}

/// Builds the 3×3 Gaussian blur as a vector program over `image`.
///
/// The nine taps combine in the strength-reduced form a GPU compiler
/// emits — the 1/2/4 weights become ADD chains (`2x = x + x`) and a
/// single final multiply by `1/16`: 11 ADD, MUL, FP2INT per pixel.
#[must_use]
pub fn gaussian_program(image: &GrayImage) -> ImageProgram {
    let n = image.len();
    // Tap order: ul, ur, dl, dr, u, l, r, d, c → registers 0..9.
    let mut instructions = gather_taps(
        image,
        &[(-1, -1), (1, -1), (-1, 1), (1, 1), (0, -1), (-1, 0), (1, 0), (0, 1), (0, 0)],
    );
    instructions.extend([
        alu(FpOp::Add, 9, vec![r(0), r(1)]),   // c1 = ul + ur
        alu(FpOp::Add, 10, vec![r(2), r(3)]),  // c2 = dl + dr
        alu(FpOp::Add, 9, vec![r(9), r(10)]),  // corners
        alu(FpOp::Add, 10, vec![r(4), r(5)]),  // e1 = u + l
        alu(FpOp::Add, 11, vec![r(6), r(7)]),  // e2 = r + d
        alu(FpOp::Add, 10, vec![r(10), r(11)]), // edges
        alu(FpOp::Add, 10, vec![r(10), r(10)]), // edges2
        alu(FpOp::Add, 11, vec![r(8), r(8)]),  // c4
        alu(FpOp::Add, 11, vec![r(11), r(11)]), // c8
        alu(FpOp::Add, 9, vec![r(9), r(10)]),  // partial
        alu(FpOp::Add, 9, vec![r(9), r(11)]),  // sum
        alu(FpOp::Mul, 9, vec![r(9), Src::Imm(1.0 / 16.0)]),
        // uchar write-out: FLT_TO_INT truncation (the paper's FP2INT).
        alu(FpOp::FpToInt, 9, vec![r(9)]),
        VInst::Scatter { src: 9, data: 1, addr: Addr::Gid },
    ]);
    bundle(
        VProgram::new(12, instructions).expect("gaussian IR is well-formed"),
        Bindings::new(vec![image.as_slice().to_vec(), vec![0.0; n]]),
        n,
        image_signature("gaussian", 12),
    )
}

/// Builds one Haar decomposition level (over `input` of even length) as a
/// vector program: work-item *i* reads `s[2i]`/`s[2i+1]` and writes the
/// approximation `(s[2i] + s[2i+1])·(1/√2)` to `out[i]` and the detail
/// `(s[2i] − s[2i+1])·(1/√2)` to `out[half + i]`.
///
/// The host drives the level-by-level loop ([`haar_on_device`]); each
/// level is one program dispatch, which is exactly the granularity at
/// which a real scheduler could interleave wavefronts of *different*
/// levels' clauses.
///
/// Buffer layout: 0 = input signal, 1 = even indices, 2 = odd indices,
/// 3 = detail indices, 4 = output.
///
/// # Panics
///
/// Panics if `input.len()` is not an even number of at least 2.
#[must_use]
pub fn haar_level_program(input: &[f32]) -> ImageProgram {
    let n = input.len();
    assert!(n >= 2 && n.is_multiple_of(2), "level length {n} must be even and >= 2");
    let half = n / 2;
    let buffers = vec![
        input.to_vec(),
        (0..half).map(|i| (2 * i) as f32).collect(),
        (0..half).map(|i| (2 * i + 1) as f32).collect(),
        (0..half).map(|i| (half + i) as f32).collect(),
        vec![0.0; n],
    ];
    let inv_sqrt2 = crate::haar::INV_SQRT2;
    let instructions = vec![
        VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) }, // even
        VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(2) }, // odd
        alu(FpOp::Add, 2, vec![r(0), r(1)]),
        alu(FpOp::Sub, 3, vec![r(0), r(1)]),
        alu(FpOp::Mul, 2, vec![r(2), Src::Imm(inv_sqrt2)]),
        alu(FpOp::Mul, 3, vec![r(3), Src::Imm(inv_sqrt2)]),
        VInst::Scatter { src: 2, data: 4, addr: Addr::Gid },
        VInst::Scatter { src: 3, data: 4, addr: Addr::Indexed(3) },
    ];
    bundle(
        VProgram::new(4, instructions).expect("haar IR is well-formed"),
        Bindings::new(buffers),
        half,
        KernelSignature {
            name: "haar_level",
            bindings: vec![
                BufferBinding::new(0, BufferRole::Input, "signal"),
                BufferBinding::new(1, BufferRole::Indices, "even"),
                BufferBinding::new(2, BufferRole::Indices, "odd"),
                BufferBinding::new(3, BufferRole::Indices, "detail"),
                BufferBinding::new(4, BufferRole::Output, "coeffs"),
            ],
            register_budget: 4,
            outputs: vec![4],
        },
    )
}

/// Builds one fast-Walsh-transform butterfly stage over `data` with the
/// given `span` as a vector program (work-item per butterfly pair): the
/// pair `(x[i], x[i+span])` becomes `(x[i] + x[i+span], x[i] − x[i+span])`.
///
/// Buffer layout: 0 = data (in/out), 1 = low indices, 2 = high indices.
///
/// # Panics
///
/// Panics unless `data.len()` is a power of two of at least 2 and
/// `span` is a power of two smaller than the length.
#[must_use]
pub fn fwt_stage_program(data: &[f32], span: usize) -> ImageProgram {
    let n = data.len();
    assert!(n >= 2 && n.is_power_of_two(), "length {n} must be a power of two");
    assert!(
        span >= 1 && span < n && span.is_power_of_two(),
        "span {span} out of range for length {n}"
    );
    let pairs = n / 2;
    let buffers = vec![
        data.to_vec(),
        (0..pairs).map(|g| fwt_low(g, span) as f32).collect(),
        (0..pairs).map(|g| (fwt_low(g, span) + span) as f32).collect(),
    ];
    let instructions = vec![
        VInst::Gather { dst: 0, data: 0, addr: Addr::Indexed(1) },
        VInst::Gather { dst: 1, data: 0, addr: Addr::Indexed(2) },
        alu(FpOp::Add, 2, vec![r(0), r(1)]),
        alu(FpOp::Sub, 3, vec![r(0), r(1)]),
        VInst::Scatter { src: 2, data: 0, addr: Addr::Indexed(1) },
        VInst::Scatter { src: 3, data: 0, addr: Addr::Indexed(2) },
    ];
    bundle(
        VProgram::new(4, instructions).expect("fwt IR is well-formed"),
        Bindings::new(buffers),
        pairs,
        KernelSignature {
            name: "fwt_stage",
            bindings: vec![
                BufferBinding::new(0, BufferRole::InOut, "data"),
                BufferBinding::new(1, BufferRole::Indices, "low"),
                BufferBinding::new(2, BufferRole::Indices, "high"),
            ],
            register_budget: 4,
            outputs: vec![0],
        },
    )
}

/// The low element of butterfly pair `g` in a span-`span` stage (the
/// high one is `span` above it).
fn fwt_low(g: usize, span: usize) -> usize {
    (g / span) * 2 * span + g % span
}

/// Runs the full Haar decomposition of `signal` on `device` — one
/// [`haar_level_program`] launch per level — and returns the standard
/// layout `[approx | detail_level_k | … | detail_level_1]`.
///
/// # Panics
///
/// Panics unless the signal length is a power of two of at least 2.
///
/// # Examples
///
/// ```
/// use tm_kernels::haar::haar_reference;
/// use tm_kernels::ir::haar_on_device;
/// use tm_sim::{Device, DeviceConfig};
///
/// let signal: Vec<f32> = (0..16).map(|i| i as f32).collect();
/// let mut device = Device::new(DeviceConfig::default());
/// assert_eq!(haar_on_device(&mut device, &signal, 1), haar_reference(&signal));
/// ```
#[must_use]
pub fn haar_on_device(device: &mut Device, signal: &[f32], in_flight: usize) -> Vec<f32> {
    let n = signal.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "signal length {n} must be a power of two >= 2"
    );
    let mut out = vec![0.0f32; n];
    // Every level runs the same instruction stream over shrinking prefixes
    // of the same buffers, so lower the bytecode once and reuse the
    // bindings: each level only refreshes the signal prefix and the
    // detail-index buffer (the one index stream that depends on `half`).
    let mut ip = haar_level_program(signal);
    let compiled = CompiledProgram::compile(&ip.program);
    let mut half = n / 2;
    loop {
        device.run_compiled(&compiled, &mut ip.bindings, half, in_flight);
        let level_out = ip.bindings.buffer(ip.output);
        out[half..2 * half].copy_from_slice(&level_out[half..2 * half]);
        if half == 1 {
            out[0] = level_out[0];
            break;
        }
        let approx: Vec<f32> = level_out[..half].to_vec();
        ip.bindings.buffer_mut(0)[..half].copy_from_slice(&approx);
        half /= 2;
        for (i, d) in ip.bindings.buffer_mut(3)[..half].iter_mut().enumerate() {
            *d = (half + i) as f32;
        }
    }
    out
}

/// Runs the full fast Walsh transform of `signal` on `device` — one
/// [`fwt_stage_program`] launch per butterfly stage.
///
/// # Panics
///
/// Panics unless the signal length is a power of two of at least 2.
///
/// # Examples
///
/// ```
/// use tm_kernels::fwt::fwt_reference;
/// use tm_kernels::ir::fwt_on_device;
/// use tm_sim::{Device, DeviceConfig};
///
/// let signal = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
/// let mut device = Device::new(DeviceConfig::default());
/// assert_eq!(fwt_on_device(&mut device, &signal, 1), fwt_reference(&signal));
/// ```
#[must_use]
pub fn fwt_on_device(device: &mut Device, signal: &[f32], in_flight: usize) -> Vec<f32> {
    let n = signal.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "signal length {n} must be a power of two >= 2"
    );
    // Stages share one instruction stream (the span lives in the index
    // buffers) and butterfly in place, so lower the bytecode once and
    // keep the data resident in buffer 0 across stages — only the two
    // index buffers are rewritten per span.
    let mut ip = fwt_stage_program(signal, 1);
    let compiled = CompiledProgram::compile(&ip.program);
    let pairs = ip.global_size;
    let mut span = 1usize;
    while span < n {
        if span > 1 {
            for (g, lo) in ip.bindings.buffer_mut(1).iter_mut().enumerate() {
                *lo = fwt_low(g, span) as f32;
            }
            for (g, hi) in ip.bindings.buffer_mut(2).iter_mut().enumerate() {
                *hi = (fwt_low(g, span) + span) as f32;
            }
        }
        device.run_compiled(&compiled, &mut ip.bindings, pairs, in_flight);
        span *= 2;
    }
    ip.take_output()
}

/// Emits the A&S cumulative-normal polynomial over register `x` into
/// `out` (the SDK's `phi`). `scratch` must be four registers distinct
/// from `x` and `out`.
fn cnd_ir(insts: &mut Vec<VInst>, x: u8, out: u8, scratch: [u8; 4]) {
    use crate::black_scholes::{A1, A2, A3, A4, A5, GAMMA, INV_SQRT_2PI};
    let [t, poly, e, neg] = scratch;
    insts.extend([
        alu(FpOp::Abs, t, vec![r(x)]),
        alu(FpOp::MulAdd, t, vec![im(GAMMA), r(t), im(1.0)]),
        alu(FpOp::Recip, t, vec![r(t)]),
        alu(FpOp::MulAdd, poly, vec![im(A5), r(t), im(A4)]),
        alu(FpOp::MulAdd, poly, vec![r(poly), r(t), im(A3)]),
        alu(FpOp::MulAdd, poly, vec![r(poly), r(t), im(A2)]),
        alu(FpOp::MulAdd, poly, vec![r(poly), r(t), im(A1)]),
        alu(FpOp::Mul, poly, vec![r(poly), r(t)]),
        alu(FpOp::Mul, e, vec![r(x), r(x)]),
        alu(FpOp::Mul, e, vec![r(e), im(-0.5 * LOG2_E)]),
        alu(FpOp::Exp2, e, vec![r(e)]),
        alu(FpOp::Mul, e, vec![r(e), im(INV_SQRT_2PI)]),
        alu(FpOp::Mul, e, vec![r(e), r(poly)]), // tail = pdf · poly
        alu(FpOp::Sub, poly, vec![im(1.0), r(e)]), // nd = 1 − tail
        // For x < 0, N(x) = 1 − N(|x|) = the tail itself.
        alu(FpOp::SetGe, neg, vec![r(x), im(0.0)]),
        alu(FpOp::CndEq, out, vec![r(neg), r(e), r(poly)]),
    ]);
}

/// Builds Black–Scholes pricing as a vector program over `batch`: one
/// work-item per option evaluates the closed-form call and put prices
/// with the Abramowitz–Stegun cumulative normal, exactly as the SDK
/// kernel does — the instruction sequence
/// [`crate::black_scholes::black_scholes_reference`] replays.
///
/// Buffer layout: 0–4 = spot/strike/maturity/rate/volatility, 5 = call
/// prices, 6 = put prices (`signature.outputs == [5, 6]`).
#[must_use]
pub fn black_scholes_program(batch: &OptionBatch) -> ImageProgram {
    let n = batch.len();
    let buffers = vec![
        batch.spot.clone(),
        batch.strike.clone(),
        batch.maturity.clone(),
        batch.rate.clone(),
        batch.volatility.clone(),
        vec![0.0; n],
        vec![0.0; n],
    ];
    // Registers: 0 s, 1 k, 2 t, 3 r, 4 σ; 5–7 d1/d2 chain, 8 nd1,
    // 9 nd2, 10 nd1m, 11 nd2m, 12 disc/k·disc, 13–15 price assembly.
    let mut insts: Vec<VInst> = (0..5u8)
        .map(|p| VInst::Gather { dst: p, data: p as usize, addr: Addr::Gid })
        .collect();
    // d1 = (ln(S/K) + (r + σ²/2)·T) / (σ·√T);  d2 = d1 − σ·√T.
    insts.extend([
        alu(FpOp::Recip, 5, vec![r(1)]),
        alu(FpOp::Mul, 5, vec![r(0), r(5)]),
        alu(FpOp::Log2, 5, vec![r(5)]),
        alu(FpOp::Mul, 5, vec![r(5), im(LN_2)]), // ln(S/K)
        alu(FpOp::Mul, 6, vec![r(4), r(4)]),
        alu(FpOp::Mul, 6, vec![r(6), im(0.5)]),
        alu(FpOp::Add, 6, vec![r(3), r(6)]), // drift = r + σ²/2
        alu(FpOp::MulAdd, 6, vec![r(6), r(2), r(5)]), // num
        alu(FpOp::Sqrt, 7, vec![r(2)]),
        alu(FpOp::Mul, 7, vec![r(4), r(7)]), // den = σ·√T
        alu(FpOp::Recip, 8, vec![r(7)]),
        alu(FpOp::Mul, 6, vec![r(6), r(8)]), // d1
        alu(FpOp::Sub, 7, vec![r(6), r(7)]), // d2
    ]);
    cnd_ir(&mut insts, 6, 8, [10, 11, 12, 13]);
    cnd_ir(&mut insts, 7, 9, [10, 11, 12, 13]);
    insts.extend([
        // N(−x) = 1 − N(x) exactly in this approximation.
        alu(FpOp::Sub, 10, vec![im(1.0), r(8)]), // N(−d1)
        alu(FpOp::Sub, 11, vec![im(1.0), r(9)]), // N(−d2)
        alu(FpOp::Mul, 12, vec![r(3), r(2)]),
        alu(FpOp::Neg, 12, vec![r(12)]),
        alu(FpOp::Mul, 12, vec![r(12), im(LOG2_E)]),
        alu(FpOp::Exp2, 12, vec![r(12)]), // disc = e^{−rT}
        alu(FpOp::Mul, 12, vec![r(1), r(12)]), // K·disc
        alu(FpOp::Mul, 13, vec![r(0), r(8)]),
        alu(FpOp::Mul, 14, vec![r(12), r(9)]),
        alu(FpOp::Sub, 13, vec![r(13), r(14)]), // call
        alu(FpOp::Mul, 14, vec![r(12), r(11)]),
        alu(FpOp::Mul, 15, vec![r(0), r(10)]),
        alu(FpOp::Sub, 14, vec![r(14), r(15)]), // put
        VInst::Scatter { src: 13, data: 5, addr: Addr::Gid },
        VInst::Scatter { src: 14, data: 6, addr: Addr::Gid },
    ]);
    bundle(
        VProgram::new(16, insts).expect("black-scholes IR is well-formed"),
        Bindings::new(buffers),
        n,
        KernelSignature {
            name: "black_scholes",
            bindings: vec![
                BufferBinding::new(0, BufferRole::Input, "spot"),
                BufferBinding::new(1, BufferRole::Input, "strike"),
                BufferBinding::new(2, BufferRole::Input, "maturity"),
                BufferBinding::new(3, BufferRole::Input, "rate"),
                BufferBinding::new(4, BufferRole::Input, "volatility"),
                BufferBinding::new(5, BufferRole::Output, "call"),
                BufferBinding::new(6, BufferRole::Output, "put"),
            ],
            register_budget: 16,
            outputs: vec![5, 6],
        },
    )
}

/// Builds binomial-lattice pricing as a vector program. Following the
/// SDK's decomposition, **one option maps to one wavefront**: work-item
/// *j* owns lattice node *j*, the Cox–Ross–Rubinstein parameters are
/// computed wavefront-uniformly, and the backward induction runs `steps`
/// masked iterations, each lane combining its own node with its
/// neighbour's.
///
/// Wavefront-uniform CRR inputs live in per-option tables gathered
/// through an option-index buffer (so their splat-like operand streams
/// hit the memo FIFOs heavily); the lattice masks live in per-lane
/// tables gathered through a lane-position buffer and are pushed onto
/// the mask stack; the neighbour read of the backward induction is a
/// [`VInst::LaneShift`].
///
/// # Panics
///
/// Panics if `steps` is zero or `steps + 1` lattice nodes exceed
/// `wavefront_size`.
#[must_use]
pub fn binomial_program(
    options: &[OptionSpec],
    steps: usize,
    wavefront_size: usize,
) -> ImageProgram {
    assert!(steps > 0, "need at least one lattice step");
    assert!(
        steps < wavefront_size,
        "steps + 1 lattice nodes must fit one wavefront"
    );
    let wf = wavefront_size;
    let n = options.len() * wf;
    let option_table = |f: fn(&OptionSpec) -> f32| -> Vec<f32> { options.iter().map(f).collect() };
    let lane_table = |pred: &dyn Fn(usize) -> bool| -> Vec<f32> {
        (0..wf).map(|j| f32::from(u8::from(pred(j)))).collect()
    };
    let mut buffers = vec![
        option_table(|o| o.maturity),
        option_table(|o| o.volatility),
        option_table(|o| o.rate),
        option_table(|o| o.spot),
        option_table(|o| o.strike),
        (0..wf).map(|j| 2.0 * j as f32 - steps as f32).collect(),
        lane_table(&|j| j <= steps),
    ];
    let live_base = buffers.len();
    for s in 0..steps {
        buffers.push(lane_table(&|j| j <= s));
    }
    let lane0 = buffers.len();
    buffers.push(lane_table(&|j| j == 0));
    let opt_idx = buffers.len();
    buffers.push((0..n).map(|g| (g / wf) as f32).collect());
    let lane_idx = buffers.len();
    buffers.push((0..n).map(|g| (g % wf) as f32).collect());
    let prices = buffers.len();
    buffers.push(vec![0.0; options.len()]);

    let per_option = |dst: u8, data: usize| VInst::Gather { dst, data, addr: Addr::Indexed(opt_idx) };
    let per_lane = |dst: u8, data: usize| VInst::Gather { dst, data, addr: Addr::Indexed(lane_idx) };
    // Registers: 0 T, 1 σ, 2 r, 3 S, 4 K, 5 expo, 6 node/live/lane0
    // masks, 7 dt, 8 u→v chain, 9 d, 10 a→disc, 11 inv(u−d), 12 pu,
    // 13 pd, 14 step scratch.
    let mut insts = vec![
        per_option(0, 0),
        per_option(1, 1),
        per_option(2, 2),
        per_option(3, 3),
        per_option(4, 4),
        per_lane(5, 5),
        // Lattice nodes are lanes 0..=steps.
        per_lane(6, 6),
        VInst::PushMask { mask: 6 },
        alu(FpOp::Mul, 7, vec![r(0), im(1.0 / steps as f32)]), // dt
        alu(FpOp::Sqrt, 8, vec![r(7)]),
        alu(FpOp::Mul, 8, vec![r(1), r(8)]),
        alu(FpOp::Mul, 8, vec![r(8), im(LOG2_E)]),
        alu(FpOp::Exp2, 8, vec![r(8)]), // u
        alu(FpOp::Recip, 9, vec![r(8)]), // d
        alu(FpOp::Mul, 10, vec![r(2), r(7)]),
        alu(FpOp::Mul, 10, vec![r(10), im(LOG2_E)]),
        alu(FpOp::Exp2, 10, vec![r(10)]), // a
        alu(FpOp::Sub, 11, vec![r(8), r(9)]),
        alu(FpOp::Recip, 11, vec![r(11)]),
        alu(FpOp::Sub, 12, vec![r(10), r(9)]),
        alu(FpOp::Mul, 12, vec![r(12), r(11)]), // pu
        alu(FpOp::Sub, 13, vec![im(1.0), r(12)]), // pd
        alu(FpOp::Recip, 10, vec![r(10)]), // disc
        // Leaf payoffs: price_j = S·u^(2j − steps); payoff = max(price − K, 0).
        alu(FpOp::Log2, 8, vec![r(8)]),
        alu(FpOp::Mul, 8, vec![r(5), r(8)]),
        alu(FpOp::Exp2, 8, vec![r(8)]), // u^(2j−steps)
        alu(FpOp::Mul, 8, vec![r(3), r(8)]),
        alu(FpOp::Sub, 8, vec![r(8), r(4)]),
        alu(FpOp::Max, 8, vec![r(8), im(0.0)]), // leaf payoffs
    ];
    // Backward induction: v_j ← disc·(pu·v_{j+1} + pd·v_j).
    for step in (0..steps).rev() {
        insts.extend([
            per_lane(6, live_base + step),
            VInst::PushMask { mask: 6 },
            VInst::LaneShift { dst: 14, src: 8, offset: 1 },
            alu(FpOp::Mul, 14, vec![r(12), r(14)]),
            alu(FpOp::MulAdd, 14, vec![r(13), r(8), r(14)]),
            // Masked write merges v: inactive lanes keep their values.
            alu(FpOp::Mul, 8, vec![r(10), r(14)]),
            VInst::PopMask,
        ]);
    }
    insts.push(VInst::PopMask);
    insts.extend([
        per_lane(6, lane0),
        VInst::PushMask { mask: 6 },
        VInst::Scatter { src: 8, data: prices, addr: Addr::Indexed(opt_idx) },
        VInst::PopMask,
    ]);

    let mut sig_bindings = vec![
        BufferBinding::new(0, BufferRole::Uniform, "maturity"),
        BufferBinding::new(1, BufferRole::Uniform, "volatility"),
        BufferBinding::new(2, BufferRole::Uniform, "rate"),
        BufferBinding::new(3, BufferRole::Uniform, "spot"),
        BufferBinding::new(4, BufferRole::Uniform, "strike"),
        BufferBinding::new(5, BufferRole::Input, "exponents"),
        BufferBinding::new(6, BufferRole::Input, "node_mask"),
    ];
    for s in 0..steps {
        sig_bindings.push(BufferBinding::new(live_base + s, BufferRole::Input, "live_mask"));
    }
    sig_bindings.push(BufferBinding::new(lane0, BufferRole::Input, "lane0_mask"));
    sig_bindings.push(BufferBinding::new(opt_idx, BufferRole::Indices, "option_index"));
    sig_bindings.push(BufferBinding::new(lane_idx, BufferRole::Indices, "lane_position"));
    sig_bindings.push(BufferBinding::new(prices, BufferRole::Output, "prices"));
    bundle(
        VProgram::new(15, insts).expect("binomial IR is well-formed"),
        Bindings::new(buffers),
        n,
        KernelSignature {
            name: "binomial_option",
            bindings: sig_bindings,
            register_budget: 15,
            outputs: vec![prices],
        },
    )
}

/// Emits one bisection step of the eigenvalue solver: the midpoint of
/// `[lo, hi]` into r3, its Sturm count into r10, and the narrowed
/// interval into r1 (`lo`) and r2 (`hi`).
fn bisection_step(insts: &mut Vec<VInst>, matrix: &Tridiagonal, lo: Src, hi: Src) {
    use crate::eigenvalue::STURM_EPS;
    insts.push(alu(FpOp::Add, 3, vec![lo, hi]));
    insts.push(alu(FpOp::Mul, 3, vec![r(3), im(0.5)]));
    // Sturm count at the per-lane pivots in r3: how many eigenvalues lie
    // strictly below each lane's pivot.
    let mut count = im(0.0);
    for i in 0..matrix.n() {
        insts.push(alu(FpOp::Sub, 4, vec![im(matrix.diag[i]), r(3)]));
        if i > 0 {
            let off2 = matrix.off[i - 1] * matrix.off[i - 1];
            insts.push(alu(FpOp::Recip, 5, vec![r(8)]));
            insts.push(alu(FpOp::MulAdd, 4, vec![im(-off2), r(5), r(4)]));
        }
        // Keep the recurrence away from zero denominators.
        insts.push(alu(FpOp::Abs, 6, vec![r(4)]));
        insts.push(alu(FpOp::SetGt, 7, vec![im(STURM_EPS), r(6)]));
        insts.push(alu(FpOp::CndEq, 8, vec![r(7), r(4), im(-STURM_EPS)]));
        insts.push(alu(FpOp::SetGt, 9, vec![im(0.0), r(8)]));
        insts.push(alu(FpOp::Add, 10, vec![count, r(9)]));
        count = r(10);
    }
    // count > k  ⇒  λ_k < mid  ⇒  shrink from above.
    insts.push(alu(FpOp::SetGt, 11, vec![r(10), r(0)]));
    insts.push(alu(FpOp::CndEq, 2, vec![r(11), hi, r(3)]));
    insts.push(alu(FpOp::CndEq, 1, vec![r(11), r(3), lo]));
}

/// Builds the bisection eigenvalue solver of the SDK's `EigenValue` as a
/// vector program: lane *k* narrows the Gershgorin interval of the
/// *k*-th smallest eigenvalue of `matrix` by `iterations` bisection
/// steps, each a Sturm-sequence sign count at the midpoint. Matrix
/// entries are wavefront-uniform, so they lower to immediates.
///
/// The first step bisects the immediate Gershgorin bounds; the rest
/// repeat one register-based step inside a counted loop, so the program
/// does not grow with `iterations`.
///
/// Buffer layout: 0 = eigenvalues out.
#[must_use]
pub fn eigenvalue_program(matrix: &Tridiagonal, iterations: usize) -> ImageProgram {
    let n = matrix.n();
    let (glo, ghi) = matrix.gershgorin_bounds();
    // Registers: 0 k, 1 lo, 2 hi, 3 sum/mid, 4 t, 5 1/d, 6 |t|,
    // 7 too_small, 8 d, 9 negative, 10 count, 11 above.
    let mut insts = vec![VInst::LaneId { dst: 0 }];
    let (mut lo, mut hi) = (im(glo), im(ghi));
    if iterations > 0 {
        bisection_step(&mut insts, matrix, lo, hi);
        (lo, hi) = (r(1), r(2));
    }
    if iterations > 1 {
        let count = u32::try_from(iterations - 1).expect("iteration count fits u32");
        insts.push(VInst::Loop { count });
        bisection_step(&mut insts, matrix, lo, hi);
        insts.push(VInst::EndLoop);
    }
    insts.push(alu(FpOp::Add, 3, vec![lo, hi]));
    insts.push(alu(FpOp::Mul, 3, vec![r(3), im(0.5)]));
    insts.push(VInst::Scatter { src: 3, data: 0, addr: Addr::Gid });
    bundle(
        VProgram::new(12, insts).expect("eigenvalue IR is well-formed"),
        Bindings::new(vec![vec![0.0; n]]),
        n,
        KernelSignature {
            name: "eigenvalue",
            bindings: vec![BufferBinding::new(0, BufferRole::Output, "eigenvalues")],
            register_budget: 12,
            outputs: vec![0],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::MatchPolicy;
    use tm_image::{gaussian3x3_reference, psnr, sobel_reference, synth};
    use tm_sim::{DeviceConfig, DeviceReport};

    fn run_ir_on(mut ip: ImageProgram, in_flight: usize, config: DeviceConfig) -> (Vec<f32>, DeviceReport) {
        let mut device = Device::new(config);
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, in_flight);
        (ip.take_output(), device.report())
    }

    fn run_ir(ip: ImageProgram, in_flight: usize) -> Vec<f32> {
        run_ir_on(ip, in_flight, DeviceConfig::default()).0
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
        }
    }

    #[test]
    fn sobel_ir_matches_reference_at_every_interleaving() {
        let image = synth::face(48, 48, 9);
        let golden = sobel_reference(&image);
        for in_flight in [1usize, 3, 8] {
            let out = run_ir(sobel_program(&image), in_flight);
            assert_bits_eq(&out, golden.as_slice(), &format!("in_flight {in_flight}"));
        }
    }

    #[test]
    fn gaussian_ir_matches_reference_at_every_interleaving() {
        let image = synth::book(48, 48, 9);
        let golden = gaussian3x3_reference(&image);
        for in_flight in [1usize, 2, 5] {
            let out = run_ir(gaussian_program(&image), in_flight);
            assert_bits_eq(&out, golden.as_slice(), &format!("in_flight {in_flight}"));
        }
    }

    #[test]
    fn image_programs_bind_no_addressing_buffers() {
        let image = synth::face(16, 8, 1);
        for ip in [sobel_program(&image), gaussian_program(&image)] {
            assert_eq!(ip.bindings.len(), 2, "{}: pixels in, pixels out", ip.signature.name);
            assert_eq!(ip.program.name(), ip.signature.name);
        }
    }

    #[test]
    fn sobel_activates_its_instruction_mix() {
        use tm_fpu::FpOp;
        let image = synth::face(32, 32, 3);
        let (_, report) = run_ir_on(sobel_program(&image), 1, DeviceConfig::default());
        let ops: Vec<FpOp> = report.per_op.iter().map(|r| r.op).collect();
        assert_eq!(
            ops,
            vec![
                FpOp::Add,
                FpOp::Sub,
                FpOp::Mul,
                FpOp::MulAdd,
                FpOp::Sqrt,
                FpOp::Min,
                FpOp::FpToInt
            ],
            "Sobel activates ADD, SUB, MUL, MULADD, SQRT, MIN, FP2INT"
        );
        assert_eq!(report.op(FpOp::Add).unwrap().lane_instructions, 32 * 32 * 6);
        assert_eq!(report.op(FpOp::Sub).unwrap().lane_instructions, 32 * 32 * 6);
        assert_eq!(report.op(FpOp::Sqrt).unwrap().lane_instructions, 32 * 32);
    }

    #[test]
    fn gaussian_activates_add_mul_fp2int() {
        use tm_fpu::FpOp;
        let image = synth::face(32, 32, 3);
        let (_, report) = run_ir_on(gaussian_program(&image), 1, DeviceConfig::default());
        let ops: Vec<FpOp> = report.per_op.iter().map(|r| r.op).collect();
        assert_eq!(ops, vec![FpOp::Add, FpOp::Mul, FpOp::FpToInt]);
        assert_eq!(report.op(FpOp::Add).unwrap().lane_instructions, 32 * 32 * 11);
        assert_eq!(report.op(FpOp::Mul).unwrap().lane_instructions, 32 * 32);
        assert_eq!(report.op(FpOp::FpToInt).unwrap().lane_instructions, 32 * 32);
    }

    #[test]
    fn approximate_matching_keeps_image_psnr_above_30db() {
        let input = synth::face(96, 96, 5);
        for (id, build, golden) in [
            (crate::KernelId::Sobel, sobel_program as fn(&GrayImage) -> ImageProgram, sobel_reference(&input)),
            (crate::KernelId::Gaussian, gaussian_program, gaussian3x3_reference(&input)),
        ] {
            let threshold = crate::calibrated_threshold(id);
            let config = DeviceConfig::builder()
                .with_policy(MatchPolicy::threshold(threshold))
                .build()
                .unwrap();
            let (out, approx) = run_ir_on(build(&input), 1, config);
            let q = psnr(&golden, &GrayImage::from_vec(96, 96, out));
            assert!(q >= 30.0, "{id}: threshold {threshold} on face must keep PSNR ≥ 30, got {q:.1}");
            // And approximation must actually buy hits.
            let (_, exact) = run_ir_on(build(&input), 1, DeviceConfig::default());
            assert!(approx.weighted_hit_rate() > exact.weighted_hit_rate(), "{id}");
        }
    }

    #[test]
    fn haar_ir_matches_reference_over_full_decomposition() {
        use crate::haar::haar_reference;
        use tm_fpu::FpOp;
        let signal: Vec<f32> = (0..1024).map(|i| (i % 37) as f32 * 0.5).collect();
        let mut device = Device::new(DeviceConfig::default());
        let out = haar_on_device(&mut device, &signal, 2);
        assert_bits_eq(&out, &haar_reference(&signal), "haar");
        let ops: Vec<FpOp> = device.report().per_op.iter().map(|r| r.op).collect();
        assert_eq!(ops, vec![FpOp::Add, FpOp::Sub, FpOp::Mul]);
    }

    #[test]
    fn fwt_ir_matches_reference_over_all_stages() {
        use crate::fwt::fwt_reference;
        use tm_fpu::FpOp;
        let signal: Vec<f32> = (0..512).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
        let mut device = Device::new(DeviceConfig::default());
        let out = fwt_on_device(&mut device, &signal, 4);
        assert_bits_eq(&out, &fwt_reference(&signal), "fwt");
        let ops: Vec<FpOp> = device.report().per_op.iter().map(|r| r.op).collect();
        assert_eq!(ops, vec![FpOp::Add, FpOp::Sub]);
    }

    #[test]
    fn black_scholes_ir_matches_the_scalar_golden() {
        use crate::black_scholes::black_scholes_reference;
        let batch = OptionBatch::generate(256, 42);
        let mut ip = black_scholes_program(&batch);
        let mut device = Device::new(DeviceConfig::default());
        device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);
        let (call, put) = (ip.bindings.buffer(5), ip.bindings.buffer(6));
        for i in 0..batch.len() {
            let (rc, rp) = black_scholes_reference(
                batch.spot[i],
                batch.strike[i],
                batch.maturity[i],
                batch.rate[i],
                batch.volatility[i],
            );
            assert_eq!(call[i].to_bits(), rc.to_bits(), "call {i}");
            assert_eq!(put[i].to_bits(), rp.to_bits(), "put {i}");
        }
    }

    #[test]
    fn binomial_ir_matches_the_scalar_golden() {
        use crate::binomial::binomial_reference;
        let options = OptionSpec::generate(16, 11);
        let out = run_ir(binomial_program(&options, 20, 64), 1);
        for (i, &opt) in options.iter().enumerate() {
            assert_eq!(out[i].to_bits(), binomial_reference(opt, 20).to_bits(), "option {i}");
        }
    }

    #[test]
    fn binomial_tables_scale_with_options_and_lanes_not_their_product() {
        let options = OptionSpec::generate(128, 1);
        let ip = binomial_program(&options, 20, 64);
        let n = 128 * 64;
        let words: usize = (0..ip.bindings.len()).map(|b| ip.bindings.buffer(b).len()).sum();
        // Two per-work-item index buffers; everything else is a table.
        assert!(words < 2 * n + 5 * 128 + 24 * 64 + 128, "{words} words bound");
    }

    #[test]
    fn eigenvalue_ir_matches_the_scalar_golden() {
        use crate::eigenvalue::eigenvalue_reference;
        let matrix = Tridiagonal::generate(16, 7);
        for iterations in [1, 2, 12] {
            let out = run_ir(eigenvalue_program(&matrix, iterations), 1);
            for (k, &e) in out.iter().enumerate() {
                let golden = eigenvalue_reference(&matrix, k, iterations);
                assert_eq!(e.to_bits(), golden.to_bits(), "{iterations} iterations, λ_{k}");
            }
        }
    }

    #[test]
    fn eigenvalue_program_does_not_grow_with_iterations() {
        let matrix = Tridiagonal::generate(64, 2);
        let short = eigenvalue_program(&matrix, 2).program;
        let long = eigenvalue_program(&matrix, 30).program;
        assert_eq!(short.len(), long.len());
        // One peeled step plus one looped step of 515 instructions each.
        assert_eq!(long.len(), 1 + 2 * 515 + 2 + 3);
        assert_eq!(long.dynamic_len(), 1 + 30 * 515 + 3);
    }

    #[test]
    fn eigenvalue_activates_a_wide_fpu_mix() {
        let matrix = Tridiagonal::generate(16, 1);
        let (_, report) = run_ir_on(eigenvalue_program(&matrix, 10), 1, DeviceConfig::default());
        assert!(report.per_op.len() >= 7, "EigenValue should activate at least 7 FPU types");
    }

    #[test]
    fn launches_are_named_after_the_signature() {
        let image = synth::face(8, 8, 0);
        for ip in [
            sobel_program(&image),
            haar_level_program(&[1.0; 8]),
            fwt_stage_program(&[1.0; 8], 2),
            eigenvalue_program(&Tridiagonal::generate(4, 0), 3),
        ] {
            assert_eq!(ip.program.name(), ip.signature.name);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwt_stage_rejects_bad_length() {
        let _ = fwt_stage_program(&[1.0, 2.0, 3.0], 1);
    }
}
