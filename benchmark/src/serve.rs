//! The `serve-mixed` workload.
//!
//! An in-process `JobServer` on 127.0.0.1 with `ServerConfig::default()`
//! and a `TelemetryHub`, driven by a closed loop of two client threads,
//! each holding one `tm_serve::Client` connection: a client sends its
//! next request only when the previous response has arrived. Each client
//! repeats a script on its own seed — seven test-scale `launch` requests
//! with `error_rate` alternating 0 / 0.01, one `snapshot`, and a `restore`
//! of the returned document — so no two in-flight jobs are identical and
//! nothing coalesces. One operation is one request.

use std::time::{Duration, Instant};

use tm_kernels::{workload, Scale, ALL_KERNELS};
use tm_obs::{HubMetric, JsonValue, ObjWriter, SharedRecorder, TelemetryHub};
use tm_serve::{Client, ClientError, JobServer, ServerConfig};
use tm_sim::{Device, DeviceConfig};

use crate::stats::{self, median};
use crate::trace::{attribute, is_cycle_span, Probe, ROUND_SPAN_CAPACITY};
use crate::{derive_seed, Bench, Tally, Window};

/// Client threads, each with one connection.
const CLIENTS: usize = 2;

/// Added to the server recorder's track groups when its spans join the
/// benchmark's, so the two recorders' pids cannot collide.
const SERVER_PID_BASE: u64 = 1 << 32;

/// A running server and its two connected clients.
pub struct ServeMixed {
    server: JobServer,
    hub: TelemetryHub,
    clients: Vec<Client>,
    seeds: [u64; CLIENTS],
    /// Lane instructions each client's launch of each kernel must report,
    /// from an in-process run of the same inputs.
    expected: [[u64; 7]; CLIENTS],
}

impl ServeMixed {
    /// Computes the reference instruction counts, starts the server,
    /// connects the clients and runs one warm-up script per client.
    /// Returns the workload and the seconds spent building inputs.
    ///
    /// # Errors
    /// When the server cannot bind or a client cannot connect.
    pub fn setup(seed: u64) -> Result<(Self, f64), String> {
        let probe = Probe::untraced();
        let mut build_s = 0.0;
        // Seeds travel as JSON numbers, which are exact below 2^53.
        let seeds: [u64; CLIENTS] = std::array::from_fn(|c| derive_seed(seed, c) >> 11);
        let expected = seeds.map(|s| {
            ALL_KERNELS.map(|id| {
                let (mut wl, secs) = probe.call("kernels", "workload::build", || {
                    workload::build(id, Scale::Test, s)
                });
                build_s += secs;
                let mut device = Device::new(DeviceConfig::default());
                let _ = wl.run(&mut device);
                device.report().total_instructions()
            })
        });
        let hub = TelemetryHub::new();
        let server = JobServer::bind("127.0.0.1:0", ServerConfig::default(), hub.clone())
            .map_err(|e| format!("serve-mixed: cannot bind the server: {e}"))?;
        let addr = server.addr().to_string();
        let clients = (0..CLIENTS)
            .map(|_| {
                Client::connect(&addr)
                    .map_err(|e| format!("serve-mixed: cannot connect to {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut serve = Self {
            server,
            hub,
            clients,
            seeds,
            expected,
        };
        serve.window(0.0, false, 0)?;
        Ok((serve, build_s))
    }
}

fn request_line(
    kind: &str,
    id: &str,
    tenant: &str,
    kernel: &str,
    seed: u64,
    error_rate: f64,
) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("v", 1);
    w.str_field("type", kind);
    w.str_field("id", id);
    w.str_field("tenant", tenant);
    w.str_field("kernel", kernel);
    w.str_field("scale", "test");
    w.u64_field("seed", seed);
    w.f64_field("error_rate", error_rate);
    w.finish()
}

/// One client's closed loop: whole scripts until `deadline`, at least one.
/// Returns its tally and how long it ran, in seconds.
fn client_loop(
    client: &mut Client,
    c: usize,
    seed: u64,
    expected: &[u64; 7],
    probe: &Probe,
    deadline: Instant,
) -> (Tally, f64) {
    let mut t = Tally::default();
    let start = Instant::now();
    let tenant = format!("client{c}");
    let mut sent = 0_u64;
    let mut scripts = 0;
    'run: loop {
        let mut doc: Option<String> = None;
        for step in 0..ALL_KERNELS.len() + 2 {
            if scripts > 0 && Instant::now() >= deadline {
                break 'run;
            }
            let id = format!("c{c}-{sent}");
            sent += 1;
            let kind = match step {
                k if k < ALL_KERNELS.len() => ALL_KERNELS[k].name(),
                7 => "snapshot",
                _ => "restore",
            };
            let line = match step {
                k if k < ALL_KERNELS.len() => {
                    let rate = if k % 2 == 0 { 0.0 } else { 0.01 };
                    request_line("launch", &id, &tenant, ALL_KERNELS[k].name(), seed, rate)
                }
                7 => request_line("snapshot", &id, &tenant, "Sobel", seed, 0.0),
                _ => {
                    let Some(doc) = doc.take() else { continue };
                    let mut w = ObjWriter::new();
                    w.u64_field("v", 1);
                    w.str_field("type", "restore");
                    w.str_field("id", &id);
                    w.str_field("tenant", &tenant);
                    w.str_field("snapshot", &doc);
                    w.finish()
                }
            };
            let (response, secs) = probe.call("serve", "Client::request", || client.request(&line));
            // `record_launch` adds a launch's instructions from its response.
            t.op(kind, secs, 0);
            let v = match response {
                Ok(v) => v,
                Err(e) => {
                    t.check(false, || format!("client {c}: request {id} failed: {e}"));
                    if matches!(e, ClientError::Io(_) | ClientError::BadResponse(_)) {
                        break 'run;
                    }
                    continue;
                }
            };
            if step < ALL_KERNELS.len() {
                record_launch(&mut t, &v, ALL_KERNELS[step].name(), expected[step], secs);
            } else if step == 7 {
                t.sample("serve.snapshot_ms", secs * 1e3);
                doc = v.get_str("snapshot").map(str::to_owned);
                let len = doc.as_ref().map_or(0, String::len);
                t.check(v.get_bool("passed") == Some(true) && len > 0, || {
                    format!("client {c}: snapshot {id} did not pass or carried no document")
                });
                t.count("snapshot.bytes", len as f64);
                t.count("snapshot.docs", 1.0);
            } else {
                t.sample("serve.restore_ms", secs * 1e3);
                t.check(v.get_u64("fifo_entries").is_some_and(|n| n > 0), || {
                    format!("client {c}: restore {id} revived no memo-FIFO entries")
                });
            }
        }
        scripts += 1;
    }
    (t, start.elapsed().as_secs_f64())
}

fn record_launch(t: &mut Tally, v: &JsonValue, kernel: &'static str, expected: u64, secs: f64) {
    let instr = v.get_u64("instructions").unwrap_or(0);
    t.check(
        v.get_bool("passed") == Some(true) && instr == expected,
        || {
            format!(
                "{kernel} launch: passed={:?}, {instr} instructions against {expected} in process",
                v.get_bool("passed")
            )
        },
    );
    t.instr += instr;
    t.kernel(kernel, instr, secs);
    t.sample("serve.launch_ms", secs * 1e3);
    t.count("serve.launches", 1.0);
    t.count(
        "serve.pool_warm",
        f64::from(u8::from(v.get_bool("pool_warm") == Some(true))),
    );
    let s = &mut t.sim;
    s.lane_instructions += instr;
    s.hit_num += v.get_f64("hit_rate").unwrap_or(0.0) * instr as f64;
    s.hit_den += instr as f64;
    s.errors_injected += v.get_u64("errors_injected").unwrap_or(0);
    s.recoveries += v.get_u64("recoveries").unwrap_or(0);
    s.energy_pj += v.get_f64("energy_pj").unwrap_or(0.0);
    s.cycles_max += v.get_u64("cycles").unwrap_or(0);
}

impl Bench for ServeMixed {
    fn backend(&self) -> &'static str {
        tm_sim::ExecBackend::default().name()
    }

    /// Serve-mixed sets up back to back before its windows (see
    /// [`crate::Workload::host_normalized`]), so `setups` is always 0.
    fn window(&mut self, seconds: f64, traced: bool, setups: usize) -> Result<Window, String> {
        debug_assert_eq!(setups, 0, "serve-mixed sets up before its windows");
        let rec = traced.then(|| SharedRecorder::with_capacity(ROUND_SPAN_CAPACITY));
        let pid = rec.as_ref().map_or(0, SharedRecorder::alloc_pid);
        let window_start_us = rec.as_ref().map_or(0, SharedRecorder::now_us);
        // The job-time sketch restarts with the window.
        self.hub.remove_prefix("serve.job_us");
        let before = self.server.stats();
        let (seeds, expected) = (self.seeds, &self.expected);
        let clients = &mut self.clients;
        let (results, elapsed, slowdown) = stats::timed_on_host(|| {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let probe = rec
                            .as_ref()
                            .map_or_else(Probe::untraced, |r| Probe::traced(r, pid, c as u64));
                        scope.spawn(move || {
                            client_loop(client, c, seeds[c], &expected[c], &probe, deadline)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serve-mixed client thread panicked"))
                    .collect::<Vec<(Tally, f64)>>()
            })
        });
        let after = self.server.stats();

        let mut tally = Tally::default();
        let mut client_wall_us = 0.0;
        for (t, secs) in results {
            tally.merge(t);
            client_wall_us += secs * 1e6;
        }
        tally.throughput_s = elapsed;
        tally.values.insert("host.slowdown", (slowdown, "ratio"));
        for (name, b, a) in [
            (
                "serve.jobs_executed",
                before.jobs_executed,
                after.jobs_executed,
            ),
            ("serve.coalesced", before.coalesced, after.coalesced),
            ("serve.rejected", before.rejected, after.rejected),
        ] {
            tally.values.insert(name, ((a - b) as f64, "count"));
        }
        if let Some(HubMetric::Sketch(jobs)) = self.hub.snapshot().get("serve.job_us") {
            let job_ms = jobs.p50() / 1e3;
            let served_ms = median(&tally.op_s) * 1e3;
            tally.values.insert("serve.job_ms_p50", (job_ms, "ms"));
            tally
                .values
                .insert("serve.overhead_ms_p50", (served_ms - job_ms, "ms"));
            tally.values.insert(
                "serve.overhead_frac",
                ((served_ms - job_ms) / served_ms, "ratio"),
            );
        }

        let mut chrome_trace = None;
        if let Some(rec) = rec {
            if rec.dropped() > 0 {
                return Err(format!(
                    "serve-mixed: the trace recorder dropped {} spans",
                    rec.dropped()
                ));
            }
            let server_rec = self.server.recorder();
            // Both recorders count microseconds from their own origin.
            let offset = rec.now_us() as i64 - server_rec.now_us() as i64;
            let mut spans = rec.with(|r| r.spans().to_vec());
            server_rec.with(|r| {
                for s in r.spans().iter().filter(|s| !is_cycle_span(s)) {
                    let ts = s.ts as i64 + offset;
                    if ts >= window_start_us as i64 {
                        let mut s = s.clone();
                        s.ts = ts as u64;
                        s.pid += SERVER_PID_BASE;
                        spans.push(s);
                    }
                }
            });
            if server_rec.dropped() > 0 {
                tally.notes.push(format!(
                    "note: the server's recorder is full and dropped {} spans; server-side layer times are partial",
                    server_rec.dropped()
                ));
            }
            attribute(&spans, pid, true, client_wall_us, &mut tally.layers);
            chrome_trace = Some(tm_obs::chrome::export_chrome_trace(&spans));
        }
        Ok(Window {
            tally,
            digest: None,
            chrome_trace,
            setups: Vec::new(),
        })
    }
}
