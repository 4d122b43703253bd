#!/usr/bin/env bash
# check.sh - the full local gate: configure with warnings-as-errors,
# build everything, run the whole test suite.  CI runs exactly this.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-check}"

generator=()
if command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi

cmake -S "${repo_root}" -B "${build_dir}" "${generator[@]}" -DFVSST_WERROR=ON
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure

# Observability smoke: a journalled run must produce a JSONL journal the
# inspector accepts and a Chrome trace that is valid JSON.
smoke_dir="${build_dir}/observability-smoke"
mkdir -p "${smoke_dir}"
"${build_dir}/tools/fvsst_sim" \
  --workload synth:50@0.0 --budget 500 --budget-at 1:280 --duration 2 \
  --explain --journal "${smoke_dir}/run.jsonl" \
  --chrome-trace "${smoke_dir}/trace.json"
"${build_dir}/tools/fvsst_inspect" "${smoke_dir}/run.jsonl" --check
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${smoke_dir}/trace.json" >/dev/null
  python3 - "${smoke_dir}/run.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    lines = [line for line in fh if line.strip()]
for n, line in enumerate(lines, 1):
    try:
        json.loads(line)
    except ValueError as err:
        raise SystemExit(f"journal line {n} is not valid JSON: {err}")
print(f"journal OK: {len(lines)} valid JSON lines")
EOF
else
  echo "python3 not found; skipping JSON validation of the smoke outputs"
fi

# Failover smoke: kill the coordinator the instant the budget drops; the
# standby must take over and the journal must pass every invariant check —
# epoch fencing and failover-window compliance included.
cat > "${smoke_dir}/failover.plan" <<'EOF'
seed 9
coordinator_crash 1.05 2.0 coordinator=0
EOF
"${build_dir}/tools/fvsst_sim" \
  --cluster --nodes 2 --standby --failsafe 2 \
  --workload synth:100@0.0 --workload synth:100@1.0 \
  --budget 1120 --budget-at 1.0123:500 --duration 2.5 \
  --fault-plan "${smoke_dir}/failover.plan" \
  --journal "${smoke_dir}/failover.jsonl"
"${build_dir}/tools/fvsst_inspect" "${smoke_dir}/failover.jsonl" --check

# Sim-throughput smoke: the skip-ahead advance-call, event-driven
# event-count, and binary-serialize floors must hold (events/s and
# advance-calls/sim-second are regression-gated like determinism is).
"${build_dir}/bench/bench_micro_substrate" --smoke

# Binary-journal smoke: the same failover scenario streamed as FJB1 must
# pass the same invariant checks after auto-detection, and --to-jsonl must
# reproduce the JSONL run byte for byte.
"${build_dir}/tools/fvsst_sim" \
  --cluster --nodes 2 --standby --failsafe 2 \
  --workload synth:100@0.0 --workload synth:100@1.0 \
  --budget 1120 --budget-at 1.0123:500 --duration 2.5 \
  --fault-plan "${smoke_dir}/failover.plan" \
  --journal "${smoke_dir}/failover.fjb"
"${build_dir}/tools/fvsst_inspect" "${smoke_dir}/failover.fjb" --check
"${build_dir}/tools/fvsst_inspect" "${smoke_dir}/failover.fjb" \
  --to-jsonl "${smoke_dir}/failover_converted.jsonl"
cmp "${smoke_dir}/failover.jsonl" "${smoke_dir}/failover_converted.jsonl"

# Monitor smoke: a cluster run under the default rule pack with a crashed
# coordinator must raise (and clear) coordinator_silent in the journal,
# write a Prometheus snapshot a strict parser accepts, and render an HTML
# report carrying every section anchor.
cat > "${smoke_dir}/monitor.plan" <<'EOF'
seed 3
coordinator_crash 1.05 2.5 coordinator=0
EOF
"${build_dir}/tools/fvsst_sim" \
  --cluster --nodes 2 --duration 3 --seed 3 \
  --fault-plan "${smoke_dir}/monitor.plan" --rules default \
  --journal "${smoke_dir}/monitor.jsonl" \
  --metrics-out "${smoke_dir}/monitor.prom"
grep '"type":"alert_raised"' "${smoke_dir}/monitor.jsonl" \
  | grep -q '"rule":"coordinator_silent"'
grep '"type":"alert_cleared"' "${smoke_dir}/monitor.jsonl" \
  | grep -q '"rule":"coordinator_silent"'
if command -v python3 >/dev/null 2>&1; then
  python3 - "${smoke_dir}/monitor.prom" <<'EOF'
import re, sys
# Strict Prometheus text-format check: every line is a comment (# HELP /
# # TYPE with a declared name) or a sample  name{labels} value  whose name
# was declared, whose labels are well-formed, and whose value parses as a
# float.  Every fvsst_alert_firing sample must be 0 or 1.
sample_re = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r' (\S+)$')
declared = set()
samples = 0
with open(sys.argv[1]) as fh:
    for n, line in enumerate(fh, 1):
        line = line.rstrip('\n')
        if not line:
            continue
        if line.startswith('#'):
            parts = line.split()
            if len(parts) < 4 or parts[1] not in ('HELP', 'TYPE'):
                raise SystemExit(f'line {n}: malformed comment: {line}')
            if parts[1] == 'TYPE':
                declared.add(parts[2])
            continue
        m = sample_re.match(line)
        if not m:
            raise SystemExit(f'line {n}: not a valid sample: {line}')
        name, _, value = m.groups()
        if name not in declared:
            raise SystemExit(f'line {n}: sample for undeclared metric {name}')
        v = float(value)  # raises on junk
        if name == 'fvsst_alert_firing' and v not in (0.0, 1.0):
            raise SystemExit(f'line {n}: alert_firing must be 0 or 1: {line}')
        samples += 1
if samples == 0:
    raise SystemExit('no samples in the Prometheus snapshot')
print(f'prometheus OK: {samples} samples, {len(declared)} metrics')
EOF
else
  echo "python3 not found; skipping strict Prometheus validation"
fi
"${build_dir}/tools/fvsst_report" "${smoke_dir}/monitor.jsonl" \
  --metrics "${smoke_dir}/monitor.prom" --out "${smoke_dir}/monitor.html"
for id in summary alerts residency power metrics; do
  grep -q "id=\"${id}\"" "${smoke_dir}/monitor.html"
done
grep -q coordinator_silent "${smoke_dir}/monitor.html"
grep -q '<svg' "${smoke_dir}/monitor.html"

# Alert-detection smoke: both injected incidents must be caught, latency
# monotone in the rule window.
"${build_dir}/bench/bench_abl_alerts" --smoke

# Transport smoke: across a loss/reorder/duplication sweep the reliable
# session must never converge slower than the datagram baseline, and
# every scenario's journal must pass all invariant checks (bounded
# convergence included).
"${build_dir}/bench/bench_abl_transport" --smoke

# Optimality-gap smoke: every always-on policy's gap against the LP bound
# must be nonnegative on the reference mix, and the two-pass heuristic's
# gap must stay under the fixed bound at every budget fraction.
"${build_dir}/bench/bench_abl_policies" --smoke

# Scale smoke: the thread-determinism sweep plus the topology gates — the
# hierarchical tree must beat the flat coordinator at 10k nodes and must
# complete a 100k-node cell (nodes*sim-s per wall-s is the metric).
"${build_dir}/bench/bench_scale" --smoke

# Sanitizer gate: rebuild with ASan + UBSan and run the suites that
# exercise the engine's fault paths, the chaos harness, and the JSONL
# reader fuzzers — the code most likely to hide memory or UB mistakes —
# plus the cluster, scheduler and flat-daemon suites: every Core holds a
# raw pointer into the power ledger its Cluster owns.  The event-queue
# suite runs here too: it recycles action slots and lets a periodic action
# cancel itself while it runs in place; so does the journal-checker suite,
# whose per-id state grows as hand-made journals name ids, and the
# hostile-journal CLI test, whose ids and counts no int can hold (the
# float-cast-overflow check flags any cast of them).
# FVSST_CHAOS_ITERATIONS is dialled down: sanitized builds are ~5x slower
# and the full sweep already ran unsanitized above.
asan_dir="${build_dir}-asan"
cmake -S "${repo_root}" -B "${asan_dir}" "${generator[@]}" \
  -DFVSST_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${asan_dir}" -j "$(nproc)" --target \
  test_chaos test_scheduler_properties test_optimal_policies \
  test_event_queue test_event_log test_journal_checker test_control_loop \
  test_transport \
  test_determinism test_failover test_event_mode test_binary_journal \
  test_shard test_summary_tree test_tree_daemon \
  test_cluster test_scheduler test_scheduler_hetero test_cluster_daemon \
  bench_abl_failover bench_abl_transport fvsst_sim fvsst_inspect \
  fvsst_report
FVSST_CHAOS_ITERATIONS=8 ctest --test-dir "${asan_dir}" --output-on-failure \
  -R 'chaos|scheduler_properties|optimal_policies|^test_event_queue$|event_log|^test_journal_checker$|control_loop|determinism|failover|cli_fault_plan|event_mode|binary_journal|transport|^test_shard$|summary_tree|tree_daemon|cli_topology|^test_cluster$|^test_scheduler$|^test_scheduler_hetero$|^test_cluster_daemon$|^cli_inspect_hostile_journal$'

# Thread-sanitizer gate: rebuild with TSan and run the parallel-stepper
# suite, the transport suite (its determinism test drives the reliable
# session through the 4-thread stepper), the tree-daemon suite (its
# invariance matrix runs the shard sweeps on up to 8 threads),
# and the scale-sweep smoke — the only code that shares simulation state
# across threads, so the only code TSan can vet.
tsan_dir="${build_dir}-tsan"
cmake -S "${repo_root}" -B "${tsan_dir}" "${generator[@]}" \
  -DFVSST_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j "$(nproc)" --target \
  test_parallel_stepper test_transport test_tree_daemon bench_scale
FVSST_CHAOS_ITERATIONS=8 ctest --test-dir "${tsan_dir}" --output-on-failure \
  -R 'parallel_stepper|^test_transport$|tree_daemon'
"${tsan_dir}/bench/bench_scale" --smoke
