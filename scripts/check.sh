#!/usr/bin/env bash
# Tier-1 verification plus static analysis and the sanitizer pass.
#
#  1. ROADMAP tier-1: configure, build, run the full test suite.
#  2. snfslint: the repo's own static-analysis pass (tools/lint) over src,
#     tests, bench, and examples — coroutine lifetime, stale pointers across
#     suspension points, dropped tasks, determinism, status discipline, lock
#     discipline (lock-balance / double-acquire / lock-order), and
#     suppression auditing. (Also runs inside ctest as `lint_repo`.)
#  3. snfsbench/selftest.py: the repository benchmark's own test (same-seed
#     fingerprint repeatability and the correctness gate on every workload).
#  4. clang-tidy (if installed): generic bug-pattern checks per .clang-tidy,
#     driven by the exported compile_commands.json; warnings are errors.
#  5. ASan/UBSan: rebuild under -fsanitize=address,undefined (the `asan`
#     CMake preset) and run fault_injection_test — the crash/restart and
#     fault-injection paths are where lifetime bugs (coroutines outliving
#     peers, use-after-free on restart) would hide — and every other test
#     binary. sim_test (the simulator kernel), proto_test (the shared payload
#     type), sync_test, state_table_test, disk_test, vfs_test and
#     metrics_test run with leak detection on; the protocol rigs, whose
#     parked coroutine frames outlive the Simulator, run with it off.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== snfslint: simulator-aware static analysis =="
# The interprocedural passes (call graph, may-suspend fixpoint, and the
# lock-discipline summaries) run on every build and inside ctest, so their
# wall time is part of the edit loop; budget it at 10s and fail loudly if it
# regresses. snfslint prints a per-rule finding tally on stderr either way.
lint_start_ns=$(date +%s%N)
./build/tools/lint/snfslint --root . src tests bench examples
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "snfslint wall time: ${lint_ms} ms (budget 10000 ms)"
if [ "$lint_ms" -gt 10000 ]; then
  echo "FAIL: snfslint exceeded its 10s wall-time budget" >&2
  exit 1
fi
# The lock-summary dump backs the lock rules (acquires/releases/may-acquire
# per function); make sure it stays producible and non-empty.
lock_lines=$(./build/tools/lint/snfslint --root . --format=locks src | wc -l)
echo "snfslint --format=locks: ${lock_lines} lock summaries"
if [ "$lock_lines" -lt 1 ]; then
  echo "FAIL: lock-summary dump is empty" >&2
  exit 1
fi

echo "== trace checker: the 20-seed fault sweep with causal-trace validation =="
# Records every cell of the sweep — all five fault profiles by all three
# protocols (NFS, SNFS, NQNFS), each on a testbed::Rig with one server and
# two clients — and runs the stale-read / concurrent-dirty / retransmit-once
# / lease-invariant checker over the trace, its per-file rules keyed by
# (fsid, fileid); any violation fails the run. The table is deterministic
# and pinned byte for byte. The fleet cells (two shards, shard and client
# crashes, the metadata cache going down) run in fault_injection_test.
fault_sweep_tmp=$(mktemp)
./build/bench/bench_fault_sweep --trace-check --seeds=20 > "$fault_sweep_tmp"
diff bench/baselines/bench_fault_sweep_stdout.txt "$fault_sweep_tmp"
rm -f "$fault_sweep_tmp"

echo "== simperf smoke: simulator hot path still runs all three loads =="
./build/bench/bench_simperf --smoke >/dev/null

echo "== fleet smoke: sharded rig, metadata tier, trace-checked fault seeds =="
# Scaled-down hotset/boot-storm sweeps plus the fleet fault seeds
# (shard crash, cache down) with the shard-aware stale-read checker;
# any trace violation aborts the run. Budgeted like snfslint: the smoke
# sweep is part of the edit loop and must stay in the 10s class.
fleet_start_ns=$(date +%s%N)
./build/bench/bench_fleet --smoke >/dev/null
fleet_ms=$(( ($(date +%s%N) - fleet_start_ns) / 1000000 ))
echo "bench_fleet --smoke wall time: ${fleet_ms} ms (budget 10000 ms)"
if [ "$fleet_ms" -gt 10000 ]; then
  echo "FAIL: bench_fleet --smoke exceeded its 10s wall-time budget" >&2
  exit 1
fi

echo "== calibrated benches: byte-identical to pinned baselines =="
# Deterministic bench output — elapsed times, three-way (NFS/SNFS/NQNFS)
# RPC matrices, trace checksums — must never move unnoticed: it is diffed
# byte-for-byte against the pinned goldens. The final "wrote
# <path>" stdout line echoes the --json argument and is excluded.
baseline_tmp=$(mktemp -d)
trap 'rm -rf "$baseline_tmp"' EXIT
./build/bench/bench_andrew --json="$baseline_tmp/andrew.json" \
  > "$baseline_tmp/andrew_stdout.txt"
./build/bench/bench_sort --json="$baseline_tmp/sort.json" \
  > "$baseline_tmp/sort_stdout.txt"
diff bench/baselines/BENCH_andrew.json "$baseline_tmp/andrew.json"
diff bench/baselines/BENCH_sort.json "$baseline_tmp/sort.json"
diff <(grep -v '^wrote ' bench/baselines/bench_andrew_stdout.txt) \
     <(grep -v '^wrote ' "$baseline_tmp/andrew_stdout.txt")
diff <(grep -v '^wrote ' bench/baselines/bench_sort_stdout.txt) \
     <(grep -v '^wrote ' "$baseline_tmp/sort_stdout.txt")
# The remaining paper tables (ablations, reopen recovery, client scaling,
# server load, sort without delayed writes, state-table sizing) print no
# JSON; their stdout is pinned whole.
for bench in ablation reopen scaling server_load sort_nodelay state_table; do
  diff "bench/baselines/bench_${bench}_stdout.txt" <("./build/bench/bench_${bench}")
done
# The full-size fleet sweep (scaling, metadata tier, protocol rows, and the
# FaultSchedule-driven shard-crash and cache-down rows) is deterministic
# too: its JSON must match the checked-in snapshot byte for byte.
./build/bench/bench_fleet --json="$baseline_tmp/fleet.json" >/dev/null
diff BENCH_fleet.json "$baseline_tmp/fleet.json"

echo "== snfsbench selftest: same-seed fingerprints and the correctness gate =="
# The benchmark's own test: builds its binary (into $CARGO_TARGET_DIR/snfsbench,
# default .bench_build/), runs every workload at smoke size twice untraced and
# once traced, and fails unless each run passes the correctness gate and all
# three print the same virtual fingerprint.
python3 snfsbench/selftest.py

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: generic bug patterns (gating) =="
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p build --quiet -warnings-as-errors='*' "${tidy_sources[@]}"
else
  echo "== clang-tidy not installed; skipping =="
fi

echo "== sanitizers: ASan/UBSan on every test binary =="
cmake --preset asan
# fs_test and hybrid_test carry the stale-pointer regressions (remove racing
# a suspended create/read, lease expiry mid-upgrade): their bugs only show
# as use-after-free, so they run under the sanitizers too.
cmake --build build-asan -j --target fault_injection_test rpc_test recovery_test \
  fs_test hybrid_test nqnfs_test fleet_test workload_test sim_test nfs_test snfs_test \
  consistency_test proto_test network_test sync_test state_table_test disk_test vfs_test \
  metrics_test sweep_test trace_test
# The simulator kernel owns the event arena, cancellable timers, the
# future/promise shared state and its take-once move-out; its tests leave no
# coroutine frame suspended at teardown, so they run leak-checked.
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/sim_test
# proto::Bytes shares one buffer between copies and slices; the protocol
# vocabulary tests spawn no coroutines, so they run leak-checked too.
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/proto_test
# The sync primitives, SNFS state table, disk model, VFS layer and metrics
# also leave nothing parked at teardown.
for leak_checked in sync_test state_table_test disk_test vfs_test metrics_test; do
  ASAN_OPTIONS=detect_leaks=1 "./build-asan/tests/${leak_checked}"
done
# Leak detection stays off for the protocol stacks: coroutine frames still
# suspended when a Simulator is torn down (parked daemons and receive loops)
# are reported as leaks. ASan/UBSan still catch use-after-free, heap
# overflow, and UB with leak checking disabled.
export ASAN_OPTIONS=detect_leaks=0
./build-asan/tests/rpc_test
./build-asan/tests/recovery_test
./build-asan/tests/fault_injection_test
./build-asan/tests/fs_test
./build-asan/tests/hybrid_test
# NQNFS lease expiry races whole-file flushes and vacate callbacks race
# crashes: one more place lifetime bugs only show as use-after-free.
./build-asan/tests/nqnfs_test
# The metadata tier coalesces concurrent fills onto one shard RPC: parked
# handler coroutines joining another request's future are exactly where a
# frame-lifetime bug would surface as use-after-free.
./build-asan/tests/fleet_test
# Rig has one build path for both layouts: fleet_test drives it as a fleet,
# workload_test as the classic local/NFS/SNFS rig.
./build-asan/tests/workload_test
# All three servers share one NFS dispatch: nfs_test drives it bare,
# snfs_test behind the state table (open/close, callbacks, remove dropping
# state), consistency_test behind every protocol (sharing scenarios, the
# random-oracle sweep, and which requests each server rejects).
./build-asan/tests/nfs_test
./build-asan/tests/snfs_test
./build-asan/tests/consistency_test
# Read and write payloads are shared, reference-counted buffers: the echo
# rig sends them through the network and back. Its peers' receive loops and
# workers are still parked at teardown, hence no leak check.
./build-asan/tests/network_test
# The seed-sweep driver and the trace recorder/checker run whole protocol
# rigs, whose parked coroutine frames are reported as leaks at teardown.
./build-asan/tests/sweep_test
./build-asan/tests/trace_test

echo "All checks passed."
