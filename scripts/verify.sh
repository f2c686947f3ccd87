#!/usr/bin/env bash
# Tier-1 verification, fully offline (the workspace is hermetic: no
# external crates), plus lint gates.
#
#   scripts/verify.sh          # build + test + clippy + docs
#   scripts/verify.sh --quick  # skip clippy and docs
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== cargo test (offline, workspace) =="
cargo test --workspace -q --offline

echo "== benchmark self-test (benchmark/ builds on the public APIs) =="
# benchmark/ is its own workspace, so the workspace pass above does not
# build it: a manifest or API change that breaks it fails here.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== backend determinism suite (sequential / parallel) =="
cargo test -q --offline -p tm-kernels --test determinism

echo "== observability demo (trace + metrics exporters) =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"; kill "${tele_pid:-}" "${serve_pid:-}" 2>/dev/null || true' EXIT
obs_out="$(cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment obs-demo --scale test \
    --trace-out "$obs_dir/obs.trace.json" --metrics-out "$obs_dir/obs.jsonl")"
echo "$obs_out"
grep -q "trace validated:" <<<"$obs_out"
grep -q "metrics validated:" <<<"$obs_out"
test -s "$obs_dir/obs.trace.json"
test -s "$obs_dir/obs.jsonl"
grep -q '"traceEvents"' "$obs_dir/obs.trace.json"
grep -q '"hit_rate"' "$obs_dir/obs.jsonl"

echo "== resilience mini-campaign (3 trials/point, heterogeneous errors) =="
camp_out="$(cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment campaign --scale test --trials 3 \
    --campaign-out "$obs_dir/campaign.jsonl")"
echo "$camp_out"
grep -q "psnr dB (mean±sd)" <<<"$camp_out"
grep -q "controller:" <<<"$camp_out"
test -s "$obs_dir/campaign.jsonl"
grep -q '"kind":"trial"' "$obs_dir/campaign.jsonl"
grep -q '"acceptable":true' "$obs_dir/campaign.jsonl"

echo "== sharded campaign gate (2 shards merge byte-identical to monolithic) =="
# Same campaign as one run and as two shards with a pinned timestamp;
# merge-shards must reassemble the exact monolithic document.
cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment campaign --scale test --trials 3 \
    --timestamp "verify.sh" \
    --campaign-out "$obs_dir/shard_whole.jsonl" >/dev/null
for i in 0 1; do
    cargo run --release --offline -p tm-bench --bin repro -- \
        --experiment campaign --scale test --trials 3 \
        --timestamp "verify.sh" --shard "$i/2" \
        --campaign-out "$obs_dir/shard_$i.jsonl" >/dev/null
done
cargo run --release --offline -p tm-bench --bin repro -- \
    merge-shards --out "$obs_dir/shard_merged.jsonl" \
    "$obs_dir/shard_0.jsonl" "$obs_dir/shard_1.jsonl"
diff "$obs_dir/shard_whole.jsonl" "$obs_dir/shard_merged.jsonl"
echo "merged shard JSONL is byte-identical to the monolithic campaign"

echo "== live telemetry gate (Prometheus endpoint + heartbeat + scrape) =="
tele_log="$obs_dir/telemetry.log"
cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment campaign --scale test --trials 2 \
    --telemetry-addr 127.0.0.1:0 --telemetry-hold-ms 30000 \
    --timestamp "verify.sh" \
    --campaign-out "$obs_dir/campaign_live.jsonl" >"$tele_log" 2>&1 &
tele_pid=$!
# The campaign holds the endpoint open after its last trial until we
# scrape it once; wait for the hold, then curl the printed address.
addr=""
for _ in $(seq 1 300); do
    if grep -q "telemetry: holding" "$tele_log" 2>/dev/null; then
        addr="$(sed -n 's/^telemetry: listening on //p' "$tele_log")"
        break
    fi
    sleep 0.1
done
test -n "$addr"
curl -sf "http://$addr/" -o "$obs_dir/scrape.txt"
wait "$tele_pid"
cat "$tele_log"
# The scrape is well-formed Prometheus text carrying the campaign series.
grep -q '^# TYPE campaign_trials_done counter' "$obs_dir/scrape.txt"
grep -q '^campaign_trials_done 8$' "$obs_dir/scrape.txt"
grep -q '^# TYPE campaign_psnr_db summary' "$obs_dir/scrape.txt"
grep -q '^campaign_psnr_db{quantile="0.5"}' "$obs_dir/scrape.txt"
grep -q '^campaign_device_launches ' "$obs_dir/scrape.txt"
# Heartbeat progress lines landed on stderr, and the JSONL leads with
# the attribution header.
grep -q "heartbeat campaign: 8/8 (100%)" "$tele_log"
grep -q "telemetry: served 1 scrape(s)" "$tele_log"
grep -q '"kind":"meta"' "$obs_dir/campaign_live.jsonl"
grep -q '"timestamp":"verify.sh"' "$obs_dir/campaign_live.jsonl"

echo "== HTML run report (campaign telemetry + bench trajectory) =="
report_out="$(cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment report --scale test --trials 2 \
    --report-out "$obs_dir/report.html" 2>/dev/null)"
echo "$report_out"
grep -q "report written to" <<<"$report_out"
test -s "$obs_dir/report.html"
grep -q "<svg " "$obs_dir/report.html"
grep -q "</html>" "$obs_dir/report.html"

# The metrics-sink guard measures a true ~4-5% overhead against a 5%
# budget — too little headroom for a noisy shared host to re-check here
# in release; it stays in the debug workspace pass above. The hub guard
# (per-launch publication, near-zero true cost) has real margin.
echo "== observability overhead guard (release: telemetry hub <=5%) =="
cargo test --release -q --offline -p tm-sim --test obs_overhead telemetry_hub

echo "== hot-path bench regression gate (frozen baseline, >20% drop fails) =="
# Threaded-backend rows are scheduling-sensitive on small hosts: a busy
# neighbour can sink one run's Haar/FWT numbers well below the floor.
# Believe a regression only if it reproduces.
bench_ok=""
for attempt in 1 2 3; do
    if bench_out="$(cargo run --release --offline -p tm-bench --bin repro -- \
        --experiment bench --scale default --gate)"; then
        bench_ok=1
        break
    fi
    echo "bench gate attempt $attempt failed — retrying"
done
echo "$bench_out"
[[ -n "$bench_ok" ]]
grep -q "gate:" <<<"$bench_out"
test -s BENCH_hotpath.json

echo "== serving gate (tm-served + repro client, byte-identical JSONL) =="
serve_log="$obs_dir/serve.log"
cargo run --release --offline -p tm-serve --bin tm-served -- \
    --addr 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 300); do
    serve_addr="$(sed -n 's/^serve: listening on //p' "$serve_log" 2>/dev/null)"
    [[ -n "$serve_addr" ]] && break
    sleep 0.1
done
test -n "$serve_addr"
# Same campaign twice — through the server and in-process — with the
# same verbatim timestamp; the files must be byte-identical (the served
# client reconstructs the same meta header).
cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment campaign --scale test --trials 2 \
    --serve-addr "$serve_addr" --timestamp "verify.sh" \
    --campaign-out "$obs_dir/campaign_served.jsonl"
cargo run --release --offline -p tm-bench --bin repro -- \
    --experiment campaign --scale test --trials 2 \
    --timestamp "verify.sh" \
    --campaign-out "$obs_dir/campaign_inproc.jsonl" >/dev/null
diff "$obs_dir/campaign_served.jsonl" "$obs_dir/campaign_inproc.jsonl"
echo "served and in-process campaign JSONL are byte-identical"
kill "$serve_pid" 2>/dev/null || true
serve_pid=""
# PROTOCOL.md example payloads must parse with the production parser.
cargo test -q --offline -p tm-serve --test protocol_docs
# The end-to-end serve tests again in release, the profile tm-served
# ships in: the ping-latency bounds and the quota and coalescing tests
# depend on timing, and release jobs run many times faster than the
# debug workspace pass's.
cargo test --release -q --offline -p tm-serve --test serve_e2e

if [[ "${1:-}" != "--quick" ]]; then
    echo "== cargo clippy -D warnings -D clippy::perf (offline, workspace) =="
    cargo clippy --workspace --all-targets --offline -- -D warnings -D clippy::perf
    echo "== cargo doc -D warnings (offline, workspace) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
fi

echo "verify: OK"
