//! End-to-end wire tests: coalescing, backpressure, latency and byte
//! identity over real sockets against a running [`JobServer`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tm_bench::{run_campaign, CampaignSpec};
use tm_obs::TelemetryHub;
use tm_serve::server::SERVER_SPAN_CAPACITY;
use tm_serve::{Client, ClientError, JobServer, ServerConfig};

fn server(config: ServerConfig) -> (JobServer, TelemetryHub) {
    let hub = TelemetryHub::new();
    let server = JobServer::bind("127.0.0.1:0", config, hub.clone()).expect("bind");
    (server, hub)
}

/// Occupies the single worker while the test lines up queued jobs
/// behind it: the tests wait for its first trial, then need it to run
/// only for the few milliseconds that submitting those jobs takes.
const SLOW_JOB: &str =
    r#"{"v":1,"type":"campaign","id":"slow","tenant":"slow","kernel":"sobel","scale":"test","trials":32,"seed":1}"#;

/// Polls `ready` until it holds; panics naming `what` after ten seconds.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Waits until the slow campaign holds the worker.
fn wait_for_slow_job(hub: &TelemetryHub) {
    wait_until("the slow campaign runs", || hub.counter("campaign.trials_done") > 0);
}

/// Connects a raw socket whose reads fail after five seconds, so a
/// request the server never answers fails the test instead of hanging it.
fn raw_connect(server: &JobServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    stream
}

/// Sends `line` and its `\n` in one write and parses the reply line.
fn raw_exchange(stream: &TcpStream, line: &str) -> tm_obs::JsonValue {
    let mut writer = stream;
    writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("a reply within the read timeout");
    tm_obs::JsonValue::parse(reply.trim_end()).expect("the reply parses")
}

/// The median wall time, in ms, of 20 calls to `round_trip`.
fn median_ms(mut round_trip: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            round_trip();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// A delayed ACK holds a frame's second write for ~40 ms; a request
/// and its response each written whole take well under a millisecond.
const PING_MEDIAN_BOUND_MS: f64 = 20.0;

#[test]
fn client_pings_on_one_connection_are_not_held_by_delayed_acks() {
    let (server, _hub) = server(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let median = median_ms(|| client.ping().expect("pong"));
    assert!(median < PING_MEDIAN_BOUND_MS, "median ping through Client took {median:.2} ms");
    server.stop();
}

#[test]
fn server_answers_single_write_pings_without_a_delayed_ack() {
    let (server, _hub) = server(ServerConfig::default());
    let stream = raw_connect(&server);
    let median = median_ms(|| {
        let v = raw_exchange(&stream, r#"{"v":1,"type":"ping","id":"p"}"#);
        assert_eq!(v.get_str("type"), Some("pong"));
    });
    assert!(median < PING_MEDIAN_BOUND_MS, "median raw ping took {median:.2} ms");
    server.stop();
}

#[test]
fn ping_stats_and_protocol_errors_over_the_wire() {
    let (server, _hub) = server(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get_str("job"), Some("stats"));
    assert_eq!(stats.get_u64("jobs_executed"), Some(0));

    let err = client.request(r#"{"v":9,"type":"ping","id":"v"}"#).unwrap_err();
    let ClientError::Server { code, .. } = err else { panic!("expected server error") };
    assert_eq!(code, "bad_version");

    let err = client.request("not json").unwrap_err();
    let ClientError::Server { code, .. } = err else { panic!("expected server error") };
    assert_eq!(code, "bad_json");

    let err = client
        .request(r#"{"v":1,"type":"launch","id":"k","kernel":"nope"}"#)
        .unwrap_err();
    let ClientError::Server { code, message } = err else { panic!("expected server error") };
    assert_eq!(code, "bad_request");
    assert!(message.contains("unknown kernel"), "message: {message}");
    server.stop();
}

#[test]
fn restoring_a_too_deep_fifo_is_a_bad_request() {
    let (server, _hub) = server(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let result = client
        .request(r#"{"v":1,"type":"snapshot","id":"s","kernel":"sobel","scale":"test"}"#)
        .expect("snapshot");
    let doc = result.get_str("snapshot").expect("snapshot document");
    // Unless the depth is bounded, restoring allocates all 10^15 slots
    // of every stream core's FIFO, and the failed allocation aborts the
    // whole server.
    let deep = doc.replacen("\"fifo_depth\":2", "\"fifo_depth\":1e15", 1);
    assert_ne!(deep, doc);
    let mut request = tm_obs::ObjWriter::new();
    request.u64_field("v", 1);
    request.str_field("type", "restore");
    request.str_field("id", "r");
    request.str_field("snapshot", &deep);
    let err = client.request(&request.finish()).unwrap_err();
    let ClientError::Server { code, message } = err else { panic!("expected server error") };
    assert_eq!(code, "bad_request");
    assert!(message.contains("FIFO depth"), "message: {message}");
    client.ping().expect("the server still answers");
    server.stop();
}

#[test]
fn restoring_state_the_config_cannot_hold_is_a_bad_request() {
    let (server, _hub) = server(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let result = client
        .request(r#"{"v":1,"type":"snapshot","id":"s","kernel":"sobel","scale":"test"}"#)
        .expect("snapshot");
    let doc = result.get_str("snapshot").expect("snapshot document");
    // A negative energy, a missing injector, and a metrics window with no
    // captured metrics: each document parses, but no device can hold it,
    // so the server must not answer that it released one.
    let value = doc.find("\"hit_pj\":").unwrap() + "\"hit_pj\":".len();
    let end = value + doc[value..].find(',').unwrap();
    let first = doc.find("\"injectors\":[").unwrap() + "\"injectors\":[".len();
    let next = first + doc[first..].find("},").unwrap() + "},".len();
    for edited in [
        format!("{}-1.5{}", &doc[..value], &doc[end..]),
        format!("{}{}", &doc[..first], &doc[next..]),
        doc.replacen("\"metrics_window\":null", "\"metrics_window\":64", 1),
    ] {
        assert_ne!(edited, doc);
        let mut request = tm_obs::ObjWriter::new();
        request.u64_field("v", 1);
        request.str_field("type", "restore");
        request.str_field("id", "r");
        request.str_field("snapshot", &edited);
        let err = client.request(&request.finish()).unwrap_err();
        let ClientError::Server { code, message } = err else { panic!("expected server error") };
        assert_eq!(code, "bad_request", "message: {message}");
        assert!(message.contains("$.compute_units[0]"), "message: {message}");
        client.ping().expect("the server still answers");
    }
    server.stop();
}

#[test]
fn the_server_recorder_keeps_at_most_its_capacity_of_newest_spans() {
    let (server, _hub) = server(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let rec = server.recorder();
    // Each launch records its job span and its device's launch and
    // wavefront spans; run launches until the recorder has wrapped.
    for launches in 1.. {
        client
            .request(r#"{"v":1,"type":"launch","id":"l","kernel":"haar","scale":"test"}"#)
            .expect("launch");
        assert!(rec.span_count() <= SERVER_SPAN_CAPACITY, "after {launches} launches");
        if rec.dropped() > 0 {
            break;
        }
    }
    // The newest span is the last launch's job span.
    let last = rec.with(|r| r.spans().last().cloned()).expect("a retained span");
    assert_eq!(last.name, "serve:launch");
    server.stop();
}

#[test]
fn restoring_corner_fractions_summing_above_one_is_a_bad_request() {
    let (server, _hub) = server(ServerConfig::default());
    let stream = raw_connect(&server);
    let result = raw_exchange(
        &stream,
        r#"{"v":1,"type":"snapshot","id":"s","kernel":"sobel","scale":"test"}"#,
    );
    let doc = result.get_str("snapshot").expect("snapshot document");
    // Each fraction is a probability, but their sum is 1.05: the
    // heterogeneous sampler would panic in the worker that restores it.
    let corners = doc.replacen(
        "\"error_model\":{\"kind\":\"uniform\"}",
        "\"error_model\":{\"kind\":\"heterogeneous\",\"slow_fraction\":0.8,\
         \"slow_factor\":4,\"fast_fraction\":0.25,\"fast_factor\":0.25}",
        1,
    );
    assert_ne!(corners, doc);
    let mut request = tm_obs::ObjWriter::new();
    request.u64_field("v", 1);
    request.str_field("type", "restore");
    request.str_field("id", "r");
    request.str_field("snapshot", &corners);
    let reply = raw_exchange(&stream, &request.finish());
    assert_eq!(reply.get_str("type"), Some("error"), "reply: {reply:?}");
    assert_eq!(reply.get_str("code"), Some("bad_request"));
    let message = reply.get_str("message").unwrap_or_default();
    assert!(message.contains("corner fractions"), "message: {message}");
    let pong = raw_exchange(&stream, r#"{"v":1,"type":"ping","id":"p"}"#);
    assert_eq!(pong.get_str("type"), Some("pong"), "the server still answers");
    server.stop();
}

#[test]
fn a_request_that_pauses_mid_line_is_answered_whole() {
    let (server, _hub) = server(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(br#"{"v":1,"type":"ping","#).expect("send first half");
    // Longer than the server's read timeout, so its first read times out
    // holding only the first half of the line.
    std::thread::sleep(Duration::from_millis(800));
    stream.write_all(b"\"id\":\"slow\"}\n").expect("send second half");
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("reply");
    let v = tm_obs::JsonValue::parse(reply.trim_end()).expect("reply parses");
    assert_eq!(v.get_str("type"), Some("pong"), "reply: {reply}");
    assert_eq!(v.get_str("id"), Some("slow"));
    server.stop();
}

#[test]
fn identical_jobs_coalesce_into_one_execution_with_identical_responses() {
    let (server, hub) = server(ServerConfig { workers: 1, queue_limit: 8, pool_idle: 2 });
    let addr = server.addr().to_string();

    // Occupy the single worker so the duplicates pile up behind it.
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect slow");
            c.request(SLOW_JOB).expect("slow campaign")
        })
    };
    wait_for_slow_job(&hub);

    // Three identical launches (same id, different connections/tenants):
    // one execution, three byte-identical response lines.
    let waiters: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect dup");
                let line = format!(
                    r#"{{"v":1,"type":"launch","id":"dup","tenant":"t{}","kernel":"sobel","scale":"test","seed":7}}"#,
                    i % 2 // two tenants share the coalesced job
                );
                c.request(&line).expect("launch result")
            })
        })
        .collect();

    let responses: Vec<_> = waiters.into_iter().map(|w| w.join().expect("join")).collect();
    let slow_result = slow.join().expect("join slow");
    assert_eq!(slow_result.get_str("job"), Some("campaign"));

    assert_eq!(responses[0], responses[1]);
    assert_eq!(responses[1], responses[2]);
    assert_eq!(responses[0].get_str("job"), Some("launch"));
    assert_eq!(responses[0].get_bool("passed"), Some(true));

    let stats = server.stats();
    assert_eq!(
        stats.jobs_executed, 2,
        "slow campaign + one coalesced launch execution, got {stats:?}"
    );
    assert_eq!(stats.coalesced, 2, "two duplicates attached, got {stats:?}");
    assert_eq!(hub.counter("serve.coalesced"), 2);
    assert!(hub.counter("serve.requests") >= 4);
    server.stop();
}

#[test]
fn over_quota_tenant_rejected_while_other_tenant_proceeds() {
    let (server, hub) = server(ServerConfig { workers: 1, queue_limit: 1, pool_idle: 2 });
    let addr = server.addr().to_string();

    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect slow");
            c.request(SLOW_JOB).expect("slow campaign")
        })
    };
    wait_for_slow_job(&hub);

    // greedy fills its 1-job quota...
    let greedy_first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect greedy1");
            c.request(
                r#"{"v":1,"type":"launch","id":"g1","tenant":"greedy","kernel":"haar","seed":1}"#,
            )
            .expect("greedy's first job succeeds")
        })
    };
    wait_until("greedy's first job is queued", || server.stats().queue_depth == 1);

    // ...so a *different* job from greedy bounces with queue_full...
    let mut c = Client::connect(&addr).expect("connect greedy2");
    let err = c
        .request(r#"{"v":1,"type":"launch","id":"g2","tenant":"greedy","kernel":"haar","seed":2}"#)
        .unwrap_err();
    let ClientError::Server { code, message } = err else { panic!("expected rejection") };
    assert_eq!(code, "queue_full");
    assert!(message.contains("greedy"), "message names the tenant: {message}");

    // ...while another tenant still gets in.
    let mut c = Client::connect(&addr).expect("connect polite");
    let polite = c
        .request(r#"{"v":1,"type":"launch","id":"p1","tenant":"polite","kernel":"fwt","seed":3}"#)
        .expect("polite tenant proceeds");
    assert_eq!(polite.get_str("job"), Some("launch"));

    assert_eq!(greedy_first.join().expect("join").get_str("job"), Some("launch"));
    let _ = slow.join().expect("join slow");
    let stats = server.stats();
    assert_eq!(stats.rejected, 1, "exactly greedy's overflow, got {stats:?}");
    server.stop();
}

#[test]
fn served_campaign_jsonl_is_byte_identical_to_in_process() {
    let (server, _hub) = server(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let response = client
        .request(
            r#"{"v":1,"type":"campaign","id":"c1","kernel":"gaussian","scale":"test","trials":2,"seed":99,"backend":"intra-cu"}"#,
        )
        .expect("campaign result");

    let spec = CampaignSpec {
        kernel: tm_kernels::KernelId::Gaussian,
        scale: tm_kernels::Scale::Test,
        trials: 2,
        seed: 99,
        // `intra-cu` names a removed backend; the server runs it on
        // `parallel`, and the JSONL is backend-invariant either way.
        backend: tm_sim::ExecBackend::Parallel,
        ..CampaignSpec::default()
    };
    let expected = run_campaign(&spec, None).jsonl();
    assert_eq!(
        response.get_str("jsonl"),
        Some(expected.as_str()),
        "served JSONL must match the in-process bytes"
    );
    server.stop();
}
