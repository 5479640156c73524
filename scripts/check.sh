#!/usr/bin/env bash
# The repository's single CI gate: formatting, lints, tests and smokes.
# Run locally before pushing. .github/workflows/ci.yml runs this script,
# then the two release-only acceptance suites (differential, closure).
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step reports its elapsed seconds when the next one starts, or when
# the script exits, so a suite that slows down shows up in the log.
step_name=""
step_start=$SECONDS
step_end() {
    if [ -n "$step_name" ]; then
        echo "<== $step_name: $((SECONDS - step_start)) s"
    fi
}
step() {
    step_end
    step_name=$1
    step_start=$SECONDS
    echo "==> $1"
}
trap step_end EXIT

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (deny warnings, incl. broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

step "cargo test"
cargo test -q --workspace

step "service tests in release (deadlines race a faster solver there)"
cargo test --release -q -p ams-serve --test serve_http

step "benchmark harness (examples/bench, its own workspace)"
# `cargo test --workspace` never compiles the benchmark, yet it drives the
# placer's public entry points (lint, presolve, Placer, the service).
cargo test --release --manifest-path examples/bench/Cargo.toml

step "deterministic counters (benchmark vs scripts/counters.json)"
# Every count, um and ratio metric of corpus-place and closure-starved
# must equal the committed baseline. A change that moves them on purpose
# reruns the script with --update and says why.
scripts/counters.sh

step "cargo test (parallel portfolio, AMSPLACE_THREADS=4)"
# Re-runs the placement-facing suites with the portfolio as the default
# solver path, so the multi-threaded dispatch stays covered by CI.
AMSPLACE_THREADS=4 cargo test -q -p ams-place -p finfet-ams-place

step "never-panic suite (randomized designs/configs)"
cargo test -q -p ams-place --test never_panic

step "lowering validator (selector-literal discipline, explicit)"
# Also runs under debug_assertions inside the placer after every
# lower/retire/re-lower; this step keeps it an explicit CI contract.
cargo test -q -p ams-place --test presolve validate_lowering

step "presolve infeasibility fast path (zero-conflict UNSAT, exit 2)"
# Without --certify, λ_th = 0 must be rejected by the presolve capacity
# proof — provenance-cited, before any CDCL conflict accrues.
set +e
presolve_out=$(cargo run -q --bin amsplace -- synthetic --quick \
    --lambda-th 0 --max-relax 0 2>&1)
presolve_code=$?
set -e
if [ "$presolve_code" -ne 2 ]; then
    echo "$presolve_out"
    echo "expected exit 2 from the presolve fast path, got $presolve_code"
    exit 1
fi
echo "$presolve_out" | grep -q 'presolve capacity pass'

step "deadline-bounded portfolio smoke run"
# One end-to-end CLI run: portfolio solving under a wall-clock deadline,
# machine-readable stats out. Exit code 0 covers optimal, anytime, and
# recovered outcomes alike.
cargo run -q --bin amsplace -- synthetic --threads 4 --quick \
    --deadline-ms 30000 --stats-json /tmp/amsplace-smoke.json
grep -q '"outcome"' /tmp/amsplace-smoke.json

step "placement-service smoke (serve, submit over loopback, shutdown)"
# One end-to-end service loop: start the server on an ephemeral loopback
# port, submit a job through the typed client path, assert the response
# carries the API schema, and shut the server down cleanly.
cargo build -q --bin amsplace
serve_log=$(mktemp)
target/debug/amsplace serve --bind 127.0.0.1:0 --workers 2 >"$serve_log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's|^amsplace serving on http://\([0-9.:]*\).*|\1|p' "$serve_log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "server never announced its address"
    cat "$serve_log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
target/debug/amsplace submit synthetic --quick --addr "$serve_addr" \
    --stats-json /tmp/amsplace-serve-smoke.json >/dev/null
grep -q '"schema_version"' /tmp/amsplace-serve-smoke.json
grep -q '"outcome"' /tmp/amsplace-serve-smoke.json
target/debug/amsplace shutdown --addr "$serve_addr" >/dev/null
wait "$serve_pid"
rm -f "$serve_log"

step "crash-recovery smoke (journaled serve, SIGKILL, --resume)"
# Kill -9 a journaled server after one completed job, restart it on the
# same journal with --resume, and assert the WAL replays: the recovery
# banner reports the job as done, and resubmitting with the same
# idempotency key deduplicates onto the recovered job instead of
# solving again.
journal_dir=$(mktemp -d)
serve_log=$(mktemp)
target/debug/amsplace serve --bind 127.0.0.1:0 --workers 1 \
    --journal-dir "$journal_dir" >"$serve_log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's|^amsplace serving on http://\([0-9.:]*\).*|\1|p' "$serve_log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "journaled server never announced its address"
    cat "$serve_log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
target/debug/amsplace submit synthetic --quick --addr "$serve_addr" \
    --idempotency-key ci-chaos-smoke >/dev/null
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
resume_log=$(mktemp)
target/debug/amsplace serve --bind 127.0.0.1:0 --workers 1 \
    --journal-dir "$journal_dir" --resume >"$resume_log" &
resume_pid=$!
resume_addr=""
for _ in $(seq 1 100); do
    resume_addr=$(sed -n 's|^amsplace serving on http://\([0-9.:]*\).*|\1|p' "$resume_log")
    [ -n "$resume_addr" ] && break
    sleep 0.1
done
if [ -z "$resume_addr" ]; then
    echo "resumed server never announced its address"
    cat "$resume_log"
    kill "$resume_pid" 2>/dev/null || true
    exit 1
fi
resubmit_out=$(target/debug/amsplace submit synthetic --quick \
    --addr "$resume_addr" --idempotency-key ci-chaos-smoke)
echo "$resubmit_out" | grep -q 'deduplicated'
grep -q 'resumed from journal: 1 done' "$resume_log"
target/debug/amsplace shutdown --addr "$resume_addr" >/dev/null
wait "$resume_pid"
rm -f "$serve_log" "$resume_log"
rm -rf "$journal_dir"

step "differential fuzz subset (SMT vs portfolio vs exhaustive reference)"
# The fast subset of the three-way differential harness; the fifty-design
# acceptance run is release-mode (CI release step + nightly).
cargo test -q -p ams-place --test differential

step "routing-closure corpus smoke (25 scenarios vs golden manifest)"
# A deterministic 25-scenario slice of the closure corpus: each scenario
# runs the full place -> route -> tighten loop; the observed pass/fail +
# drc_clean verdicts must match scripts/corpus_smoke_manifest.json. The
# full 1000+-scenario sweep runs nightly (scripts/corpus.sh full).
scripts/corpus.sh smoke

step "certified infeasibility smoke (proof-checked UNSAT, exit 2)"
# λ_th = 0 is unsatisfiable by construction; --certify must turn that into
# a DRAT certificate the in-repo checker validates before exiting 2.
set +e
certify_out=$(cargo run -q --bin amsplace -- synthetic --quick \
    --certify --lambda-th 0 --max-relax 0 2>&1)
certify_code=$?
set -e
if [ "$certify_code" -ne 2 ]; then
    echo "$certify_out"
    echo "expected exit 2 from the certified infeasible run, got $certify_code"
    exit 1
fi
echo "$certify_out" | grep -q 'certificate: UNSAT proof checked'

echo "All checks passed."
