//! The kernel-launch workloads: `kernels-default` and `launches-test`.
//!
//! Each round launches the seven kernels through `workload::build` — the
//! entry point `repro` and `tm-served` use — on a fresh device per
//! launch: `Device::new` + `DeviceWorkload::run` + `Device::report`.
//! Inputs are built during set-up.

use tm_bench::kernel_policy;
use tm_kernels::{workload, DeviceWorkload, KernelId, Scale, ALL_KERNELS};
use tm_sim::{Device, DeviceConfig, DeviceSnapshot, ExecBackend};

use crate::stats::Fnv;
use crate::trace::Probe;
use crate::{derive_seed, Rounds, Tally};

/// What one operation of a kernel workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// One launch (`kernels-default`).
    Launch,
    /// One round: the seven launches, then a snapshot round trip of the
    /// Sobel device (`launches-test`). Its test-scale launches are short
    /// and two of them take nearly the same time, so a median over single
    /// launches would sit where those two meet and jump with host noise.
    Round,
}

/// The seven kernels over `inputs.len()` input sets, one set per round.
pub struct KernelRounds {
    inputs: Vec<Vec<Box<dyn DeviceWorkload>>>,
    configs: Vec<DeviceConfig>,
    backend: ExecBackend,
    unit: Unit,
}

impl KernelRounds {
    /// Builds `sets` input sets at `scale` from `seed` and runs a warm-up
    /// round on each, on devices of `compute_units` CUs. Returns the
    /// workload and the seconds spent building inputs.
    ///
    /// # Panics
    /// Panics if a kernel's device configuration is invalid.
    #[must_use]
    pub fn setup(
        scale: Scale,
        (backend, compute_units): (ExecBackend, usize),
        sets: usize,
        unit: Unit,
        seed: u64,
    ) -> (Self, f64) {
        let probe = Probe::untraced();
        let mut build_s = 0.0;
        let inputs = (0..sets)
            .map(|set| {
                let set_seed = derive_seed(seed, set);
                ALL_KERNELS
                    .iter()
                    .map(|&id| {
                        let (wl, secs) = probe.call("kernels", "workload::build", || {
                            workload::build(id, scale, set_seed)
                        });
                        build_s += secs;
                        wl
                    })
                    .collect()
            })
            .collect();
        let configs = ALL_KERNELS
            .iter()
            .map(|&id| {
                DeviceConfig::builder()
                    .with_policy(kernel_policy(id))
                    .with_backend(backend)
                    .with_compute_units(compute_units)
                    .build()
                    .expect("kernel device configs are valid")
            })
            .collect();
        let mut rounds = Self {
            inputs,
            configs,
            backend,
            unit,
        };
        for index in 0..sets {
            rounds.round(index, &probe, &mut Tally::default());
        }
        (rounds, build_s)
    }

    /// Snapshot → JSON → snapshot → restore, checking that the restored
    /// device re-encodes to the same bytes. Returns the program's seconds.
    fn round_trip(device: &Device, probe: &Probe, tally: &mut Tally) -> f64 {
        let (snapshot, capture) = probe.call("snapshot", "Device::snapshot", || device.snapshot());
        let snapshot = match snapshot {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("snapshot capture failed: {e}"));
                return capture;
            }
        };
        let (doc, encode) =
            probe.call("snapshot", "DeviceSnapshot::to_json", || snapshot.to_json());
        let (parsed, decode) = probe.call("snapshot", "DeviceSnapshot::from_json", || {
            DeviceSnapshot::from_json(&doc)
        });
        let parsed = match parsed {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("snapshot decode failed: {e}"));
                return capture + encode + decode;
            }
        };
        let (restored, restore) =
            probe.call("snapshot", "Device::restore", || Device::restore(&parsed));
        let (same, _) = probe.call("check", "snapshot re-encode", || {
            restored
                .as_ref()
                .ok()
                .and_then(|d| d.snapshot().ok())
                .is_some_and(|s| s.to_json() == doc)
        });
        tally.check(same && parsed.fifo_entries() > 0, || {
            "snapshot round trip: the restored device does not re-encode to the same bytes".into()
        });
        tally.sample("snapshot.capture_us", capture * 1e6);
        tally.sample("snapshot.encode_us", encode * 1e6);
        tally.sample("snapshot.decode_us", decode * 1e6);
        tally.sample("snapshot.restore_us", restore * 1e6);
        tally.sample("snapshot_ms", (capture + encode) * 1e3);
        tally.sample("restore_ms", (decode + restore) * 1e3);
        tally.count("snapshot.bytes", doc.len() as f64);
        tally.count("snapshot.docs", 1.0);
        capture + encode + decode + restore
    }
}

impl Rounds for KernelRounds {
    fn backend(&self) -> &'static str {
        self.backend.name()
    }

    fn cycle(&self) -> usize {
        self.inputs.len()
    }

    fn round(&mut self, index: usize, probe: &Probe, tally: &mut Tally) -> u64 {
        let set = index % self.inputs.len();
        let mut digest = Fnv::default();
        let (mut round_s, mut round_instr) = (0.0, 0);
        for (wl, config) in self.inputs[set].iter_mut().zip(&self.configs) {
            let id = wl.id();
            let (mut device, new) =
                probe.call("sim.device", "Device::new", || Device::new(config.clone()));
            if let Some(rec) = probe.recorder() {
                device.attach_recorder(rec);
            }
            let (output, run) =
                probe.call("kernels", "DeviceWorkload::run", || wl.run(&mut device));
            let (report, report_s) = probe.call("sim.device", "Device::report", || device.report());
            let (secs, instr) = (new + run + report_s, report.total_instructions());
            tally.kernel(id.name(), instr, secs);
            if self.unit == Unit::Launch {
                tally.op(id.name(), secs, instr);
            }
            round_s += secs;
            round_instr += instr;
            tally.sample("sim.device_new_us", new * 1e6);
            tally.sample("sim.run_ms", run * 1e3);
            tally.sample("sim.report_us", report_s * 1e6);
            tally.sim.add_report(&report);
            let (ok, _) = probe.call("check", "DeviceWorkload::acceptable", || {
                wl.acceptable(&output)
            });
            tally.check(ok, || {
                format!("{id}: output failed the host-side acceptance check")
            });
            digest.write(format!("{report:?}").as_bytes());
            digest.write_f32s(&output);
            if self.unit == Unit::Round && id == KernelId::Sobel {
                round_s += Self::round_trip(&device, probe, tally);
            }
        }
        if self.unit == Unit::Round {
            tally.op("round", round_s, round_instr);
        }
        digest.finish()
    }
}
