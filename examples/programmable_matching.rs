//! The §4.2 programming model, stand-alone: drive a single memoization
//! module through its memory-mapped registers — switch matching
//! constraints, preload compiler-computed contexts, and power-gate it —
//! exactly the control surface the paper gives applications.
//!
//! ```text
//! cargo run --example programmable_matching
//! ```

use temporal_memo::memo::{ctrl_bits, MatchPolicy, MemoModule, Reg};
use temporal_memo::prelude::*;

fn main() {
    let mut module = MemoModule::new(FpOp::Sqrt, MatchPolicy::Exact);

    println!("-- exact matching (reset state) --");
    let a = module.access(Operands::unary(2.0), || 2.0f32.sqrt(), false);
    let b = module.access(Operands::unary(2.0), || unreachable!(), false);
    println!("first access: hit={}, second: hit={}", a.hit, b.hit);
    let c = module.access(Operands::unary(2.0000002), || 2.0000002f32.sqrt(), false);
    println!("2.0000002 under exact matching: hit={}", c.hit);

    println!("\n-- programming an approximate threshold through MMIO --");
    // What a driver would do: write the threshold register, flip the
    // threshold-mode bit in CTRL.
    module.write_reg(Reg::Threshold, 0.5f32.to_bits());
    let ctrl = module.mmio().read(Reg::Ctrl);
    module.write_reg(Reg::Ctrl, ctrl | ctrl_bits::THRESHOLD_MODE);
    println!("policy now: {:?}", module.policy());
    let d = module.access(Operands::unary(2.3), || unreachable!(), false);
    println!("2.3 within 0.5 of the stored 2.0: hit={}, result={}", d.hit, d.result);

    println!("\n-- masking vector realization --");
    // Alternatively program the 32-bit masking vector to ignore the low
    // 16 fraction bits ("allow mismatches in the less significant bits of
    // the fraction parts").
    module.set_policy(MatchPolicy::MaskBits(temporal_memo::memo::fraction_mask(16)));
    let e = module.access(Operands::unary(2.000001), || unreachable!(), false);
    println!("2.000001 under fraction masking: hit={}", e.hit);

    println!("\n-- compiler-directed preloading --");
    // "compiler-directed analysis techniques or domain experts ... can
    // also store pre-computed values in the LUT".
    module.set_policy(MatchPolicy::Exact);
    module.preload(Operands::unary(9.0), 3.0);
    module.preload(Operands::unary(16.0), 4.0);
    let f = module.access(Operands::unary(9.0), || unreachable!(), false);
    println!("preloaded sqrt(9): hit={}, result={}", f.hit, f.result);

    println!("\n-- a timing error arrives on a hit: masked for free --");
    let g = module.access(Operands::unary(16.0), || unreachable!(), true);
    println!(
        "hit={}, masked_error={}, action: {}",
        g.hit, g.masked_error, g.action
    );

    println!("\n-- application lacks locality: power-gate the module --");
    module.set_enabled(false);
    let h = module.access(Operands::unary(16.0), || 4.0, false);
    println!(
        "gated access: bypassed={}, lookups counted={} (stats: {})",
        h.bypassed,
        module.stats().lookups,
        module.stats()
    );
}
