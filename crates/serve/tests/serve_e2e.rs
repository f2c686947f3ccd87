//! End-to-end wire tests: coalescing, backpressure and byte identity
//! over real sockets against a running [`JobServer`].

use std::time::Duration;

use tm_bench::{run_campaign, CampaignSpec};
use tm_obs::TelemetryHub;
use tm_serve::{Client, ClientError, JobServer, ServerConfig};

fn server(config: ServerConfig) -> (JobServer, TelemetryHub) {
    let hub = TelemetryHub::new();
    let server = JobServer::bind("127.0.0.1:0", config, hub.clone()).expect("bind");
    (server, hub)
}

/// Occupies the single worker long enough for the test to line up queued
/// jobs behind it.
const SLOW_JOB: &str =
    r#"{"v":1,"type":"campaign","id":"slow","tenant":"slow","kernel":"sobel","scale":"test","trials":32,"seed":1}"#;

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
    std::thread::sleep(Duration::from_millis(300));

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
    let (server, _hub) = server(ServerConfig { workers: 1, queue_limit: 1, pool_idle: 2 });
    let addr = server.addr().to_string();

    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect slow");
            c.request(SLOW_JOB).expect("slow campaign")
        })
    };
    std::thread::sleep(Duration::from_millis(300));

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
    std::thread::sleep(Duration::from_millis(150));

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
        backend: tm_sim::ExecBackend::IntraCu,
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
