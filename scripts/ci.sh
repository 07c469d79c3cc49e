#!/bin/sh
# Offline CI gate: release build, full test suite (warnings-as-errors),
# differential property suite, kernel microbench.
#
# Fails (non-zero exit) if the build or any test fails. The microbench
# line is printed to stdout so callers can append it to a BENCH_*.json
# trajectory file, and structured metrics files land in
# target/ci-artifacts/ for archiving.
set -eu

cd "$(dirname "$0")/.."

# Property-based differential tests run harder in CI than in local dev
# (64 cases by default). Override by exporting DRQ_TESTKIT_CASES.
DRQ_TESTKIT_CASES="${DRQ_TESTKIT_CASES:-256}"
export DRQ_TESTKIT_CASES

# Any warning in the workspace fails the test build. Setting RUSTFLAGS in
# the environment replaces .cargo/config.toml's flags, so re-state
# target-cpu=native to keep CI binaries identical to dev builds.
CI_RUSTFLAGS="-Dwarnings -C target-cpu=native"

on_test_failure() {
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "" >&2
        echo "CI test failure. Property-based failures print a shrunk" >&2
        echo "counterexample and a replay prefix; re-run one case with:" >&2
        echo "  DRQ_TESTKIT_SEED=<seed> DRQ_TESTKIT_CASES=1 cargo test --test differential" >&2
    fi
    exit "$status"
}
trap on_test_failure EXIT

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline, -Dwarnings, DRQ_TESTKIT_CASES=$DRQ_TESTKIT_CASES) =="
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --offline --workspace

echo "== docs (offline, rustdoc warnings as errors) =="
# Every library crate's docs build with no broken or ambiguous intra-doc
# link, private items included, so a doc comment cannot keep naming a
# deleted item. `--lib` because the CLI binary `drq` would write its page
# over the `drq` facade's.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --lib --offline \
    --document-private-items

echo "== differential property suite (offline) =="
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --offline --test differential

echo "== differential filter sweep (DRQ_THREADS=1/2/auto) =="
# The mixed_conv families assert bit-exactness against the tap-loop oracle
# (wide_channel_conv on groups of up to 40 input channels, whose reductions
# cross the integer kernel's panels), the int families against the
# exact-i64 GEMM oracle, the sim_host family
# the simulator's synthesis, predictor and cycle-model fast paths against
# their pixel-by-pixel oracles, conv_backward the fp32 conv's gradients
# against the naive backward, f32_gemm the transposed-operand GEMM
# against matmul on the materialized transpose, coalesced_serving
# serve's coalesced group walk against one-request-at-a-time replies
# (full lines, cycles included), and predictor the predictor's masks,
# summed from the one INT8 code pass the mixed conv also reads, against
# their pixel-by-pixel oracle and their scaling, permutation, padding
# and threshold properties. The worker pool's own
# tests (drq-tensor's `parallel` unit tests and its parallel_equivalence
# suite) run in the same sweep. Running each under every DRQ_THREADS
# setting also pins the tests that don't iterate thread counts
# internally. A run that matches no test fails the step instead of
# passing vacuously.
SWEEP_LOG=$(mktemp)
# sweep_run THREADS LABEL CARGO_TEST_ARGS...: one test run at THREADS
# (auto leaves DRQ_THREADS unset) that must pass at least one test.
sweep_run() {
    t=$1
    label=$2
    shift 2
    echo "-- DRQ_THREADS=$t, $label --"
    if [ "$t" = auto ]; then
        RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --offline "$@" > "$SWEEP_LOG" 2>&1 \
            || { cat "$SWEEP_LOG"; exit 1; }
    else
        RUSTFLAGS="$CI_RUSTFLAGS" DRQ_THREADS="$t" \
            cargo test -q --offline "$@" > "$SWEEP_LOG" 2>&1 \
            || { cat "$SWEEP_LOG"; exit 1; }
    fi
    cat "$SWEEP_LOG"
    SWEEP_PASSED=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$SWEEP_LOG" \
        | awk '{ s += $1 } END { print s + 0 }')
    [ "$SWEEP_PASSED" -gt 0 ] || {
        echo "$label ran 0 tests at DRQ_THREADS=$t" >&2
        exit 1
    }
}
for t in 1 2 auto; do
    for filter in mixed_conv wide_channel_conv int sim_host conv_backward f32_gemm \
        coalesced_serving predictor; do
        sweep_run "$t" "differential filter '$filter'" --test differential "$filter"
    done
    sweep_run "$t" "drq-tensor parallel_equivalence" -p drq-tensor --test parallel_equivalence
    sweep_run "$t" "drq-tensor parallel unit tests" -p drq-tensor --lib parallel
done
rm -f "$SWEEP_LOG"

echo "== batched kernels vs their scalar forms (release, ignored tests) =="
# `fill_half_normal` over 2^26 draws against `next_normal().max(0.0)`
# (bits and generator state), and `quantize_value` over every f32 bit
# pattern against round-then-clamp: too slow for the default test run.
IGNORED_LOG=$(mktemp)
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --release --offline \
    -p drq-tensor -p drq-quant --lib -- --ignored > "$IGNORED_LOG" 2>&1 \
    || { cat "$IGNORED_LOG"; exit 1; }
cat "$IGNORED_LOG"
IGNORED_PASSED=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$IGNORED_LOG" \
    | awk '{ s += $1 } END { print s + 0 }')
rm -f "$IGNORED_LOG"
[ "$IGNORED_PASSED" -ge 2 ] || {
    echo "expected the 2 ignored kernel tests, ran $IGNORED_PASSED" >&2
    exit 1
}

echo "== golden metrics schema (offline) =="
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --offline --test metrics_golden

echo "== benchmark package unit + smoke tests (offline) =="
# benchmark/ is a package of its own (empty [workspace] table), so the
# workspace test run above never builds it; this catches an API change
# that breaks the benchmark before a perf comparison does.
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --release --offline \
    --manifest-path benchmark/Cargo.toml

trap - EXIT

ARTIFACTS=target/ci-artifacts
mkdir -p "$ARTIFACTS"

echo "== kernel microbench =="
./target/release/kernel_microbench --metrics "$ARTIFACTS/kernel_microbench.json" \
    | tee "$ARTIFACTS/tier_comparison.json"

echo "== integer GEMM perf gate (int8 vs f32, 1 thread) =="
# The archived one-line JSON doubles as the tier-comparison artifact; fail
# the build if the int8 packed GEMM is not faster than the f32 blocked GEMM
# on the standard (256,1152,196) shape, single-threaded.
F32_MS=$(sed -n 's/.*"gemm_blocked_1t_ms":\([0-9.]*\).*/\1/p' "$ARTIFACTS/tier_comparison.json")
INT8_MS=$(sed -n 's/.*"int8_gemm_1t_ms":\([0-9.]*\).*/\1/p' "$ARTIFACTS/tier_comparison.json")
[ -n "$F32_MS" ] && [ -n "$INT8_MS" ] || {
    echo "tier comparison artifact missing timing fields:" >&2
    cat "$ARTIFACTS/tier_comparison.json" >&2
    exit 1
}
awk -v f32="$F32_MS" -v int8="$INT8_MS" 'BEGIN { exit !(int8 < f32) }' || {
    echo "int8 GEMM ($INT8_MS ms) is not faster than f32 ($F32_MS ms)" >&2
    exit 1
}
echo "int8 $INT8_MS ms vs f32 $F32_MS ms (1 thread): ok"

echo "== SimSession metrics artifact =="
./target/release/drq sim --network lenet5 --accel drq \
    --metrics "$ARTIFACTS/sim_metrics.json" \
    --trace "$ARTIFACTS/sim_trace.jsonl"

echo "== fault injection (empty plan must be byte-identical) =="
printf '{"seed":0,"rules":[]}\n' > "$ARTIFACTS/empty_fault_plan.json"
./target/release/drq sim --network lenet5 --accel drq \
    --fault-plan "$ARTIFACTS/empty_fault_plan.json" \
    --metrics "$ARTIFACTS/sim_metrics_empty_plan.json"
cmp "$ARTIFACTS/sim_metrics.json" "$ARTIFACTS/sim_metrics_empty_plan.json" || {
    echo "empty fault plan perturbed the metrics report" >&2
    exit 1
}

echo "== partitioned simulator (byte-identity + wall-clock gate) =="
# The per-layer work queue must be a pure wall-clock optimization: the
# full-network report at a worker cap of 1, 2, 7 (above the CPU count)
# and auto must be byte-identical. `--accel none` skips the paper lineup
# so the timing below measures only the session itself.
PART_NET=resnet50
for p in 1 2 7 auto; do
    START_NS=$(date +%s%N)
    ./target/release/drq sim --network "$PART_NET" --res imagenet --accel none \
        --partitions "$p" --seed 42 \
        --metrics "$ARTIFACTS/sim_partition_$p.json"
    END_NS=$(date +%s%N)
    eval "PART_MS_$p=$(( (END_NS - START_NS) / 1000000 ))"
done
for p in 2 7 auto; do
    cmp "$ARTIFACTS/sim_partition_1.json" "$ARTIFACTS/sim_partition_$p.json" || {
        echo "partitions=$p report drifted from the single-shard bytes" >&2
        exit 1
    }
done
CPUS=$(nproc 2>/dev/null || echo 1)
SPEEDUP=$(awk -v a="$PART_MS_1" -v b="$PART_MS_auto" \
    'BEGIN { x = b > 0 ? a / b : 0; printf "%.2f", x }')
# The speedup gate only means something when the machine has cores to
# parallelize over; on a single-CPU runner we record the measurement and
# skip the enforcement honestly instead of rubber-stamping it.
if [ "$CPUS" -ge 2 ]; then PART_GATE=enforced; else PART_GATE=skipped_single_cpu; fi
printf '{"kind":"sim_partition_speedup","network":"%s","cpus":%s,"single_ms":%s,"two_ms":%s,"auto_ms":%s,"speedup":%s,"gate":"%s"}\n' \
    "$PART_NET" "$CPUS" "$PART_MS_1" "$PART_MS_2" "$PART_MS_auto" "$SPEEDUP" "$PART_GATE" \
    > "$ARTIFACTS/sim_partition_speedup.json"
cat "$ARTIFACTS/sim_partition_speedup.json"
if [ "$PART_GATE" = enforced ]; then
    awk -v a="$PART_MS_1" -v b="$PART_MS_auto" 'BEGIN { exit !(b > 0 && a > b) }' || {
        echo "partitioned sim (auto=${PART_MS_auto}ms) not faster than single-shard (${PART_MS_1}ms) on $CPUS CPUs" >&2
        exit 1
    }
fi

echo "== fault injection (fixed-seed smoke plan) =="
./target/release/drq faults --network lenet5 \
    --metrics "$ARTIFACTS/reliability.json"
DRQ_THREADS=1 ./target/release/drq faults --network lenet5 \
    --metrics "$ARTIFACTS/reliability_1t.json"
cmp "$ARTIFACTS/reliability.json" "$ARTIFACTS/reliability_1t.json" || {
    echo "DRQ_THREADS=1 reliability report drifted from the default-thread bytes" >&2
    echo "replay: DRQ_THREADS=1 drq faults --network lenet5" >&2
    exit 1
}
FAULTS_TOTAL=$(sed -n 's/.*"faults":{[^}]*"total":\([0-9]*\)}.*/\1/p' "$ARTIFACTS/reliability.json")
[ -n "$FAULTS_TOTAL" ] && [ "$FAULTS_TOTAL" -gt 0 ] || {
    echo "smoke plan injected no faults (faults.total='$FAULTS_TOTAL'); the step proves nothing" >&2
    exit 1
}
echo "smoke plan injected $FAULTS_TOTAL faults, byte-identical at 1 thread: ok"

echo "== serve soak (loopback, fixed seed) =="
# Ephemeral port: the server prints "listening on 127.0.0.1:PORT" once
# bound; scrape the port from its stdout.
rm -f "$ARTIFACTS/serve_stdout.txt"
./target/release/drq serve --port 0 --workers 2 --capacity 64 \
    --metrics "$ARTIFACTS/serve_metrics.json" \
    > "$ARTIFACTS/serve_stdout.txt" &
SERVE_PID=$!
PORT=""
tries=0
while [ -z "$PORT" ] && [ "$tries" -lt 100 ]; do
    PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$ARTIFACTS/serve_stdout.txt" 2>/dev/null || true)
    [ -n "$PORT" ] || { tries=$((tries + 1)); sleep 0.1; }
done
[ -n "$PORT" ] || { echo "serve never reported its port" >&2; kill "$SERVE_PID"; exit 1; }

# Fixed-seed soak with an adversarial mix of malformed, oversized and
# deadline-expired lines (no poison here: a clean run must end with zero
# worker restarts), then a graceful shutdown. The client exits non-zero
# if any response is lost or duplicated.
./target/release/drq client --addr "127.0.0.1:$PORT" \
    --clients 4 --requests 16 --seed 20260807 \
    --malformed 2 --oversized 1 --expired 1 \
    --shutdown true --drain-ms 10000 \
    --metrics "$ARTIFACTS/serve_client_metrics.json"

# Clean shutdown: the server process must exit 0 on its own.
wait "$SERVE_PID" || { echo "serve exited non-zero" >&2; exit 1; }
grep -q '"worker_restarts":0' "$ARTIFACTS/serve_metrics.json" || {
    echo "clean soak restarted a worker:" >&2
    cat "$ARTIFACTS/serve_metrics.json" >&2
    exit 1
}
grep -q '"kind":"serve"' "$ARTIFACTS/serve_metrics.json" || {
    echo "serve metrics artifact malformed" >&2
    exit 1
}

echo "== serve hostile lines (bad UTF-8, over-long) =="
# valid / bad UTF-8 / valid / one byte past the 64 KiB line cap / valid:
# each bad line must get one error response and serving must go on to the
# end of the input without restarting a worker.
{
    printf '{"id":"h1"}\n\377\376\n{"id":"h2"}\n'
    head -c 65537 /dev/zero | tr '\000' x
    printf '\n{"id":"h3"}\n'
} | ./target/release/drq serve --stdin true > "$ARTIFACTS/serve_hostile.txt"
HOSTILE_OK=$(grep -c '"status":"ok"' "$ARTIFACTS/serve_hostile.txt" || true)
HOSTILE_ERR=$(grep -c '"status":"error"' "$ARTIFACTS/serve_hostile.txt" || true)
[ "$HOSTILE_OK" -eq 3 ] && [ "$HOSTILE_ERR" -eq 2 ] \
    && grep -q 'worker_restarts 0' "$ARTIFACTS/serve_hostile.txt" || {
    echo "hostile serve lines: want 3 ok, 2 error, 0 restarts; got $HOSTILE_OK ok, $HOSTILE_ERR error:" >&2
    cat "$ARTIFACTS/serve_hostile.txt" >&2
    exit 1
}
echo "hostile serve lines: 3 ok, 2 error, 0 worker restarts: ok"

echo "== serve scale-out soak (seeded kills, cross-config byte-gate) =="
# The same seeded request stream at 1 worker / no kills / no coalescing
# and at 4 workers with 2 mid-stream worker kills and aggressive
# continuous batching must produce byte-identical canonical transcripts.
# `drq soak` itself exits non-zero (with a replay hint) if any request is
# dropped, duplicated, or errored.
SOAK_SEED=20260809
SOAK_REQS=96
START_NS=$(date +%s%N)
./target/release/drq soak --workers 1 --kills 0 --coalesce 1 \
    --requests "$SOAK_REQS" --seed "$SOAK_SEED" \
    --canonical "$ARTIFACTS/soak_canonical_1w.jsonl" \
    --metrics "$ARTIFACTS/soak_1w.json"
END_NS=$(date +%s%N)
SOAK_MS_1=$(( (END_NS - START_NS) / 1000000 ))
START_NS=$(date +%s%N)
./target/release/drq soak --workers 4 --kills 2 --coalesce 8 \
    --requests "$SOAK_REQS" --seed "$SOAK_SEED" \
    --canonical "$ARTIFACTS/soak_canonical_4w.jsonl" \
    --metrics "$ARTIFACTS/soak_4w.json" \
    --trace "$ARTIFACTS/soak_4w_trace.jsonl"
END_NS=$(date +%s%N)
SOAK_MS_4=$(( (END_NS - START_NS) / 1000000 ))
cmp "$ARTIFACTS/soak_canonical_1w.jsonl" "$ARTIFACTS/soak_canonical_4w.jsonl" || {
    echo "scale-out transcript drifted from the single-worker bytes" >&2
    echo "replay: drq soak --workers 4 --requests $SOAK_REQS --seed $SOAK_SEED --kills 2 --coalesce 8" >&2
    exit 1
}
# Kills must not lose trace spans: every request ends exactly one
# serve/request span with outcome ok (a salvaged run ends "salvaged").
SOAK_TRACE_OK=$(grep '"kind":"span_end"' "$ARTIFACTS/soak_4w_trace.jsonl" \
    | grep -c '"outcome":"ok"' || true)
[ "$SOAK_TRACE_OK" -eq "$SOAK_REQS" ] || {
    echo "killing soak trace holds $SOAK_TRACE_OK ok span ends, want $SOAK_REQS" >&2
    exit 1
}
echo "killing soak trace: $SOAK_TRACE_OK ok span ends for $SOAK_REQS requests: ok"
# Continuous batching must actually engage at 4 workers / coalesce 8.
SOAK_COALESCED=$(sed -n 's/.*"batch_coalesced":\([0-9]*\).*/\1/p' "$ARTIFACTS/soak_4w.json")
SOAK_RATE=$(sed -n 's/.*"coalesce_rate":\([0-9.]*\).*/\1/p' "$ARTIFACTS/soak_4w.json")
SOAK_HIT_RATE=$(sed -n 's/.*"plan_hit_rate":\([0-9.]*\).*/\1/p' "$ARTIFACTS/soak_4w.json")
[ -n "$SOAK_COALESCED" ] && [ "$SOAK_COALESCED" -gt 0 ] || {
    echo "soak at coalesce 8 never coalesced a batch:" >&2
    cat "$ARTIFACTS/soak_4w.json" >&2
    exit 1
}
SOAK_TPS_1=$(sed -n 's/.*"throughput_rps":\([0-9.]*\).*/\1/p' "$ARTIFACTS/soak_1w.json")
SOAK_TPS_4=$(sed -n 's/.*"throughput_rps":\([0-9.]*\).*/\1/p' "$ARTIFACTS/soak_4w.json")
SOAK_SPEEDUP=$(awk -v a="$SOAK_TPS_1" -v b="$SOAK_TPS_4" \
    'BEGIN { x = a > 0 ? b / a : 0; printf "%.2f", x }')
# The 1.5x throughput gate only means something with cores to scale over;
# on small runners record the measurement and skip the enforcement
# honestly instead of rubber-stamping it.
if [ "$CPUS" -ge 4 ]; then SOAK_GATE=enforced; else SOAK_GATE=skipped_single_cpu; fi
printf '{"kind":"serve_scaleout","cpus":%s,"requests":%s,"seed":%s,"one_worker_ms":%s,"four_worker_ms":%s,"throughput_rps_1w":%s,"throughput_rps_4w":%s,"speedup":%s,"batch_coalesced":%s,"coalesce_rate":%s,"plan_hit_rate":%s,"gate":"%s"}\n' \
    "$CPUS" "$SOAK_REQS" "$SOAK_SEED" "$SOAK_MS_1" "$SOAK_MS_4" \
    "${SOAK_TPS_1:-0}" "${SOAK_TPS_4:-0}" "$SOAK_SPEEDUP" \
    "$SOAK_COALESCED" "${SOAK_RATE:-0}" "${SOAK_HIT_RATE:-0}" "$SOAK_GATE" \
    > "$ARTIFACTS/serve_scaleout.json"
cat "$ARTIFACTS/serve_scaleout.json"
if [ "$SOAK_GATE" = enforced ]; then
    awk -v s="$SOAK_SPEEDUP" 'BEGIN { exit !(s >= 1.5) }' || {
        echo "4-worker soak throughput (${SOAK_TPS_4} rps) below 1.5x single-worker (${SOAK_TPS_1} rps) on $CPUS CPUs" >&2
        exit 1
    }
fi

echo "== pareto search (budget-interrupt-and-resume byte-gate) =="
# A full seeded search and a budget-interrupted-then-resumed search must
# converge to byte-identical checkpoint artifacts; the front must be a
# real trade-off curve (more than one member) with real pruning.
# Checkpoints are CRC-framed with a per-commit generation header, so the
# comparison is on the committed *payloads* (`drq store --cat`), which
# must be byte-identical even though the files' generation numbers differ.
PARETO_SEED=20260810
./target/release/drq pareto --network lenet5 --seed "$PARETO_SEED" \
    --out "$ARTIFACTS/pareto_front.json" --metrics "$ARTIFACTS/pareto_metrics.json"
# The session memo synthesizes each (layer, effective region) once and
# steps its region sums per threshold: on LeNet-5's paper grid that is
# 2*3 + 3*1 = 9 syntheses and 2*21 + 3*7 = 63 mask sets.
PARETO_SUMS=$(sed -n 's/.*"sim\/memo\/sum_builds":\([0-9]*\).*/\1/p' "$ARTIFACTS/pareto_metrics.json")
PARETO_MASKS=$(sed -n 's/.*"sim\/memo\/mask_builds":\([0-9]*\).*/\1/p' "$ARTIFACTS/pareto_metrics.json")
[ "$PARETO_SUMS" = 9 ] && [ "$PARETO_MASKS" = 63 ] || {
    echo "pareto memo built ${PARETO_SUMS:-?} region-sum sets and ${PARETO_MASKS:-?} mask sets (want 9 and 63)" >&2
    exit 1
}
./target/release/drq pareto --network lenet5 --seed "$PARETO_SEED" \
    --budget 40 --out "$ARTIFACTS/pareto_resume.json"
grep -q '"status":"paused"' "$ARTIFACTS/pareto_resume.json" || {
    echo "budgeted pareto search did not pause:" >&2
    cat "$ARTIFACTS/pareto_resume.json" >&2
    exit 1
}
./target/release/drq pareto --resume "$ARTIFACTS/pareto_resume.json" \
    --out "$ARTIFACTS/pareto_resume.json"
./target/release/drq store --cat "$ARTIFACTS/pareto_front.json" \
    > "$ARTIFACTS/pareto_front.payload"
./target/release/drq store --cat "$ARTIFACTS/pareto_resume.json" \
    > "$ARTIFACTS/pareto_resume.payload"
cmp "$ARTIFACTS/pareto_front.payload" "$ARTIFACTS/pareto_resume.payload" || {
    echo "resumed pareto payload drifted from the one-shot bytes" >&2
    echo "replay: drq pareto --network lenet5 --seed $PARETO_SEED --budget 40, then --resume" >&2
    exit 1
}
# The shared session's memo is filled by whichever worker asks first; a
# single-threaded search must still commit the same payload bytes.
DRQ_THREADS=1 ./target/release/drq pareto --network lenet5 --seed "$PARETO_SEED" \
    --out "$ARTIFACTS/pareto_front_1t.json"
./target/release/drq store --cat "$ARTIFACTS/pareto_front_1t.json" \
    > "$ARTIFACTS/pareto_front_1t.payload"
cmp "$ARTIFACTS/pareto_front.payload" "$ARTIFACTS/pareto_front_1t.payload" || {
    echo "DRQ_THREADS=1 pareto payload drifted from the default-thread bytes" >&2
    echo "replay: DRQ_THREADS=1 drq pareto --network lenet5 --seed $PARETO_SEED" >&2
    exit 1
}
PARETO_FRONT=$(sed -n 's/.*"front_size":\([0-9]*\).*/\1/p' "$ARTIFACTS/pareto_front.json")
PARETO_PRUNED=$(sed -n 's/.*"pruned":\([0-9]*\).*/\1/p' "$ARTIFACTS/pareto_front.json")
[ -n "$PARETO_FRONT" ] && [ "$PARETO_FRONT" -gt 1 ] || {
    echo "pareto front degenerated to ${PARETO_FRONT:-?} member(s)" >&2
    exit 1
}
[ -n "$PARETO_PRUNED" ] && [ "$PARETO_PRUNED" -gt 0 ] || {
    echo "pareto search pruned nothing (pruned=${PARETO_PRUNED:-?})" >&2
    exit 1
}
echo "pareto: front $PARETO_FRONT members, $PARETO_PRUNED pruned, $PARETO_SUMS syntheses, resume and 1-thread bytes ok"

echo "== store chaos property suite (offline) =="
# The N/N-1 recovery property under arbitrary seeded I/O fault schedules
# (torn writes, short reads, bit rot, ENOSPC, rename/fsync failure), the
# exhaustive truncate-at-every-offset / flip-every-bit salvage sweeps, and
# the typed two-failure error. Runs at the CI case count set above.
RUSTFLAGS="$CI_RUSTFLAGS" cargo test -q --offline --test store_chaos

echo "== store chaos gate (seeded SIGKILLs, resume-to-byte-identical) =="
# SIGKILL `drq pareto` at commit boundaries mid-search, resume each time
# from whatever the crash left on disk, and require the final committed
# payload to be byte-identical to an uninterrupted run. The resnet18/cifar
# search commits a checkpoint every 5 evaluations; each kill waits for the
# on-disk generation to advance, so the schedule does not depend on how
# fast the host runs the search.
CHAOS_NET=resnet18
CHAOS_RES=cifar
CHAOS_SEED=20260810
CHAOS_EVERY=5
CHAOS_CK="$ARTIFACTS/store_chaos_front.json"
rm -f "$CHAOS_CK" "$CHAOS_CK.prev" "$CHAOS_CK.tmp"
./target/release/drq pareto --network "$CHAOS_NET" --res "$CHAOS_RES" \
    --seed "$CHAOS_SEED" --checkpoint-every "$CHAOS_EVERY" \
    --out "$ARTIFACTS/store_chaos_ref.json" > /dev/null
./target/release/drq store --cat "$ARTIFACTS/store_chaos_ref.json" \
    > "$ARTIFACTS/store_chaos_ref.payload"
CHAOS_KILLS=0
CHAOS_RESUMES=0
# Kill schedule, counted in commits rather than milliseconds so it does
# not move with how fast the host runs the search: each round draws a
# seeded target of 1 or 2 checkpoint generations past the one on disk when
# the round starts, polls `drq store --info` (no sleep) until the primary
# reaches it, then kills at once. The next commit begins while the poll
# observes this one, so kills land just after a commit or inside the next.
# A round gives up after 15000 polls (about 30 s) or when the search exits.
CHAOS_RNG=$CHAOS_SEED
for CHAOS_ROUND in 1 2 3 4 5 6; do
    CHAOS_BASE=$(./target/release/drq store --info "$CHAOS_CK" 2>/dev/null \
        | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')
    CHAOS_RNG=$(( (CHAOS_RNG * 1103515245 + 12345) % 2147483648 ))
    CHAOS_TARGET=$(( ${CHAOS_BASE:-0} + 1 + CHAOS_RNG / 65536 % 2 ))
    if [ "$CHAOS_RESUMES" -eq 0 ]; then
        ./target/release/drq pareto --network "$CHAOS_NET" --res "$CHAOS_RES" \
            --seed "$CHAOS_SEED" --checkpoint-every "$CHAOS_EVERY" \
            --out "$CHAOS_CK" > /dev/null 2>&1 &
    else
        ./target/release/drq pareto --resume "$CHAOS_CK" \
            --checkpoint-every "$CHAOS_EVERY" --out "$CHAOS_CK" > /dev/null 2>&1 &
    fi
    CHAOS_PID=$!
    CHAOS_POLLS=0
    while [ "$CHAOS_POLLS" -lt 15000 ] && kill -0 "$CHAOS_PID" 2>/dev/null; do
        CHAOS_GEN=$(./target/release/drq store --info "$CHAOS_CK" 2>/dev/null \
            | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')
        [ "${CHAOS_GEN:-0}" -ge "$CHAOS_TARGET" ] && break
        CHAOS_POLLS=$((CHAOS_POLLS + 1))
    done
    kill -9 "$CHAOS_PID" 2>/dev/null || true
    # Count a kill only when the process actually died to the signal
    # (exit 128+9); a search that finished before the kill point exits 0.
    CHAOS_STATUS=0
    wait "$CHAOS_PID" 2>/dev/null || CHAOS_STATUS=$?
    if [ "$CHAOS_STATUS" -ge 128 ]; then
        CHAOS_KILLS=$((CHAOS_KILLS + 1))
    fi
    CHAOS_RESUMES=$((CHAOS_RESUMES + 1))
done
[ "$CHAOS_KILLS" -ge 5 ] || {
    echo "chaos gate needs >= 5 mid-run kills, landed only $CHAOS_KILLS" >&2
    echo "(search finished before the kill points)" >&2
    exit 1
}
# Final uninterrupted resume: must converge to the reference payload.
./target/release/drq pareto --resume "$CHAOS_CK" \
    --checkpoint-every "$CHAOS_EVERY" --out "$CHAOS_CK" > /dev/null
./target/release/drq store --cat "$CHAOS_CK" > "$ARTIFACTS/store_chaos_front.payload"
cmp "$ARTIFACTS/store_chaos_ref.payload" "$ARTIFACTS/store_chaos_front.payload" || {
    echo "post-chaos pareto payload drifted from the uninterrupted run" >&2
    echo "replay: kill/resume drq pareto --network $CHAOS_NET --res $CHAOS_RES --seed $CHAOS_SEED" >&2
    exit 1
}

# Deliberate mid-frame truncation of the primary: `drq store --verify`
# and a resume must both fall back to the previous generation (exit 0,
# with a warning naming the salvage), and the search must still converge
# to the identical payload.
CHAOS_FALLBACKS=0
CHAOS_BYTES=$(wc -c < "$CHAOS_CK")
head -c "$((CHAOS_BYTES / 2))" "$CHAOS_CK" > "$CHAOS_CK.trunc"
mv "$CHAOS_CK.trunc" "$CHAOS_CK"
./target/release/drq store --verify "$CHAOS_CK" 2> "$ARTIFACTS/store_chaos_verify.txt" || {
    echo "store --verify could not salvage a truncated primary" >&2
    exit 1
}
grep -q "fell back to previous checkpoint generation" "$ARTIFACTS/store_chaos_verify.txt" || {
    echo "store --verify salvage warning missing:" >&2
    cat "$ARTIFACTS/store_chaos_verify.txt" >&2
    exit 1
}
CHAOS_FALLBACKS=$((CHAOS_FALLBACKS + 1))
./target/release/drq pareto --resume "$CHAOS_CK" --out "$CHAOS_CK" > /dev/null
CHAOS_FALLBACKS=$((CHAOS_FALLBACKS + 1))
./target/release/drq store --cat "$CHAOS_CK" > "$ARTIFACTS/store_chaos_front.payload"
cmp "$ARTIFACTS/store_chaos_ref.payload" "$ARTIFACTS/store_chaos_front.payload" || {
    echo "truncation-fallback resume drifted from the uninterrupted payload" >&2
    exit 1
}
CHAOS_GEN=$(./target/release/drq store --info "$CHAOS_CK" \
    | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')
printf '{"kind":"store_chaos","network":"%s","seed":%s,"checkpoint_every":%s,"kills_survived":%s,"resumes":%s,"fallbacks":%s,"final_generation":%s,"payload_identical":true}\n' \
    "$CHAOS_NET" "$CHAOS_SEED" "$CHAOS_EVERY" "$CHAOS_KILLS" "$CHAOS_RESUMES" \
    "$CHAOS_FALLBACKS" "${CHAOS_GEN:-0}" \
    > "$ARTIFACTS/store_chaos.json"
cat "$ARTIFACTS/store_chaos.json"

echo "== weight checkpoint round-trip (framed store, truncation fallback) =="
# Trained weights persist only through the store frame. Two saves leave a
# previous generation; a half-truncated primary must load from it with a
# warning, and an unframed file must be a typed error (exit 1), not a
# panic (exit 101).
WEIGHTS="$ARTIFACTS/weights.bin"
rm -f "$WEIGHTS" "$WEIGHTS.prev" "$WEIGHTS.tmp"
for WEIGHTS_ROUND in 1 2; do
    ./target/release/drq train --dataset digits --samples 40 --epochs 1 \
        --out "$WEIGHTS" > /dev/null
done
./target/release/drq store --verify "$WEIGHTS"
WEIGHTS_BYTES=$(wc -c < "$WEIGHTS")
head -c "$((WEIGHTS_BYTES / 2))" "$WEIGHTS" > "$WEIGHTS.trunc"
mv "$WEIGHTS.trunc" "$WEIGHTS"
./target/release/drq eval --weights "$WEIGHTS" --dataset digits --samples 40 \
    > /dev/null 2> "$ARTIFACTS/weights_eval.txt" || {
    echo "drq eval could not salvage a truncated weight checkpoint:" >&2
    cat "$ARTIFACTS/weights_eval.txt" >&2
    exit 1
}
grep -q "was corrupt .* loaded previous generation" "$ARTIFACTS/weights_eval.txt" || {
    echo "drq eval salvage warning missing:" >&2
    cat "$ARTIFACTS/weights_eval.txt" >&2
    exit 1
}
WEIGHTS_STATUS=0
./target/release/drq eval --weights "$ARTIFACTS/sim_metrics.json" --dataset digits \
    --samples 40 > /dev/null 2> "$ARTIFACTS/weights_unframed.txt" || WEIGHTS_STATUS=$?
[ "$WEIGHTS_STATUS" -eq 1 ] || {
    echo "drq eval on an unframed weight file exited $WEIGHTS_STATUS, want 1:" >&2
    cat "$ARTIFACTS/weights_unframed.txt" >&2
    exit 1
}
echo "weights: truncated primary salvaged from the previous generation, unframed file rejected"

echo "== artifacts =="
ls -l "$ARTIFACTS"
