//! Trace a kernel and quantify its value locality — the paper's §1
//! premise ("the entropy of data-level parallelism is low") made
//! measurable: operand entropy per FPU type, LRU stack-distance
//! predictions, and the match against the measured FIFO hit rate.
//!
//! ```text
//! cargo run --release --example locality_analysis
//! ```

use temporal_memo::kernels::ir::sobel_program;
use temporal_memo::prelude::*;
use temporal_memo::sim::locality::{operand_entropy_bits, summarize, StackDistanceProfile};
use temporal_memo::{image::synth, sim::TraceEvent};

fn main() {
    let input = synth::face(128, 128, 7);
    let config = DeviceConfig::builder()
        .with_compute_units(1)
        .with_trace_depth(2_000_000).build().unwrap();
    let mut device = Device::new(config);
    let mut ip = sobel_program(&input);
    device.run_program(&ip.program, &mut ip.bindings, ip.global_size, 1);

    let events: Vec<TraceEvent> = device.trace_events().copied().collect();
    println!("traced {} lane instructions of Sobel on a 128x128 face\n", events.len());

    let total_entropy = operand_entropy_bits(events.iter());
    println!("whole-stream operand entropy: {total_entropy:.2} bits");
    println!("(a 32-bit x 2-operand uniform stream could carry up to 64 bits)\n");

    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>26}",
        "op", "events", "entropy(b)", "max-ent(b)", "predicted LRU hit @2/4/16/64"
    );
    for s in summarize(events.iter()) {
        println!(
            "{:<8} {:>9} {:>12.2} {:>12.2}     {:>4.0}% {:>4.0}% {:>4.0}% {:>4.0}%",
            s.op.mnemonic(),
            s.events,
            s.entropy_bits,
            s.max_entropy_bits,
            s.predicted_hit_rates[0] * 100.0,
            s.predicted_hit_rates[1] * 100.0,
            s.predicted_hit_rates[2] * 100.0,
            s.predicted_hit_rates[3] * 100.0
        );
    }

    let profile = StackDistanceProfile::from_events(events.iter());
    let predicted = profile.hit_rate_at_depth(2);
    let measured = device.report().weighted_hit_rate();
    println!();
    println!("cold (first-touch) fraction: {:.1}%", profile.cold_fraction() * 100.0);
    println!(
        "depth-2 LRU prediction {:.1}% vs measured FIFO hit rate {:.1}%",
        predicted * 100.0,
        measured * 100.0
    );
    println!();
    println!("the CDF of the stack-distance histogram IS the FIFO-depth sweep:");
    for depth in [2usize, 4, 8, 16, 32, 64] {
        println!(
            "  depth {depth:>2}: predicted hit rate {:>5.1}%",
            profile.hit_rate_at_depth(depth) * 100.0
        );
    }
}
