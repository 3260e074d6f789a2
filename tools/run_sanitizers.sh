#!/usr/bin/env bash
# Builds and runs the test suite under ThreadSanitizer and AddressSanitizer
# (separate build trees, so they don't disturb the regular ./build).
#
#   tools/run_sanitizers.sh            # all three sanitizers, full suite
#   tools/run_sanitizers.sh thread     # TSan only
#   tools/run_sanitizers.sh address -R 'thread_pool|parallel|sharded'
#   tools/run_sanitizers.sh undefined  # UBSan only
#   tools/run_sanitizers.sh faults     # fault-injection suites under TSan
#   tools/run_sanitizers.sh obs        # metrics/trace concurrency (TSan) and
#                                      # counter exporters (ASan)
#   tools/run_sanitizers.sh batch      # batched write/delete suites under TSan
#   tools/run_sanitizers.sh kernels    # SIMD kernel + skip-index suites
#   tools/run_sanitizers.sh wal        # WAL group commit (TSan) + replay (ASan)
#   tools/run_sanitizers.sh snapshots  # epoch/snapshot concurrency (TSan+ASan)
#   tools/run_sanitizers.sh telemetry  # flight recorder seqlock + exporters
#   tools/run_sanitizers.sh resolve    # candidate resolution: intersection
#                                      # kernels, NIX/B-tree, hot tier
#   tools/run_sanitizers.sh joins      # set-containment join executor
#
# Extra arguments after the sanitizer name are passed to ctest, which is
# how you scope a TSan run to the concurrency tests (they are the ones
# that exercise cross-thread interleavings; the rest are single-threaded).
#
# The `faults` mode runs the fault-injection and crash-recovery suites
# (DESIGN.md §9) under ThreadSanitizer: the failpoint registry and the
# FaultInjector are shared mutable state hit from query worker threads, so
# their locking is exactly what TSan should vet.

set -euo pipefail

cd "$(dirname "$0")/.."

run_one() {
  local sanitizer="$1"
  shift
  local build_dir="build-${sanitizer}san"
  echo "=== ${sanitizer} sanitizer: configuring ${build_dir} ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSIGSET_SANITIZE="${sanitizer}" > /dev/null
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ${sanitizer} sanitizer: running tests ==="
  (cd "${build_dir}" && ctest --output-on-failure "$@")
}

case "${1:-all}" in
  thread)
    shift
    run_one thread "$@"
    ;;
  address)
    shift
    run_one address "$@"
    ;;
  undefined)
    shift
    run_one undefined "$@"
    ;;
  obs)
    # The observability hot paths are relaxed atomics read by concurrent
    # snapshots (MetricsRegistry, IoStats deltas, traced parallel queries);
    # TSan vets exactly those interleavings.  The trace JSON, EXPLAIN,
    # trace-event and storage-metric exporters assemble their keys and
    # columns from the page-counter table, and the postmortems format every
    # flight-event counter; ASan vets that string assembly.
    shift
    run_one thread -R \
      'metrics_test|io_stats_delta|query_trace|parallel_executor' \
      "$@"
    run_one address -R \
      'io_stats_delta|query_trace|exporters_test|storage_metrics|flight_recorder' \
      "$@"
    ;;
  faults)
    shift
    run_one thread -R \
      'failpoint|fault_injection|crash_recovery|model_vs_measured|sharded_buffer_pool' \
      "$@"
    ;;
  batch)
    # The grouped write path (WriteBatch / ApplyBatch / Compact) mutates
    # every facility plus the store under one SynchronizedSetIndex lock and
    # is queried from 4-thread pools mid-churn; TSan vets the batch-vs-query
    # interleavings and the retirement of superseded CoW wrappers against
    # the reclaimer thread, ASan the slot reuse, the object pages' heap
    # compaction and the compaction rewrites.
    shift
    run_one thread -R \
      'write_batch|delete_query|synchronized_set_index|epoch' "$@"
    run_one address -R \
      'write_batch|delete_query|oid_file|ssf|bssf|btree|nested_index|slotted_page|multi_object_store|object_store|epoch' \
      "$@"
    ;;
  kernels)
    # The dispatched kernels do unaligned 256-bit loads right up to buffer
    # tails (ASan's bread and butter), and the skip-index summaries are
    # consulted from 4-thread query pools while the differential fuzz
    # churns the store (TSan's).  Both runs repeat with the AVX2 path
    # forced off so the portable loops get the same scrutiny.
    shift
    run_one address -R 'kernels_test|bitvector|query_differential_fuzz' "$@"
    SIGSET_DISABLE_AVX2=1 run_one address \
      -R 'kernels_test|bitvector|query_differential_fuzz' "$@"
    run_one thread -R 'kernels_test|query_differential_fuzz|model_vs_measured' \
      "$@"
    SIGSET_DISABLE_AVX2=1 run_one thread \
      -R 'kernels_test|query_differential_fuzz|model_vs_measured' "$@"
    ;;
  wal)
    # Group commit is a leader/follower protocol over a mutex and two
    # condvars with concurrent committers — TSan vets the handoff (the
    # crash-fuzz suite also drives 4-thread replicas through it).  Replay
    # parses raw frame bytes from torn, bit-flipped, and truncated logs —
    # ASan vets the scanner's bounds.  Insert, Delete and ApplyBatch share
    # one logged mutation body, so the suites that drive the singleton
    # entry points (with the reclaimer thread and telemetry on) and the
    # store's OID prediction run under both as well.
    shift
    suites='wal_log|crash_recovery|query_differential_fuzz'
    suites+='|database_test|write_batch|telemetry_test|multi_object_store'
    run_one thread -R "${suites}" "$@"
    run_one address -R "${suites}" "$@"
    ;;
  snapshots)
    # The MVCC-lite read path is lock-free by design: writers push CoW page
    # versions and publish epochs while pinned readers walk the version
    # chains with acquire loads, and the reclaimer concurrently frees
    # superseded nodes.  TSan vets the publish/pin/reclaim interleavings
    # (the concurrent differential fuzz drives 10 reader threads through
    # them); ASan vets the version-chain allocation and reclamation.
    # Readers use page views, which lend in-memory pages and version nodes
    # in place, and 4-thread resolution reads shared in-memory pages
    # through them: page_file and parallel_executor cover both.
    shift
    suites='epoch_test|query_differential_fuzz|synchronized_set_index'
    suites+='|page_file|parallel_executor'
    run_one thread -R "${suites}" "$@"
    run_one address -R "${suites}" "$@"
    ;;
  resolve)
    # The candidate-resolution path end to end: intersect_u64 does
    # unaligned 256-bit loads and a mask-indexed left-pack store guarded
    # against the last 3 slots of an exactly-min(na,nb) buffer (ASan's
    # bread and butter), the nested index merges posting lists and the ∅
    # roster, and the hot tier's pinned map is read from 4-thread query
    # pools while write paths refresh pinned copies (TSan's).  Both
    # sanitizers repeat with AVX2 forced off so the portable merge and
    # galloping paths get the same scrutiny, and the dispatched bench gate
    # asserts the >= 2x claim on 64k posting lists where the hardware can.
    # NIX lookups and candidate fetches hold up to 16 page views at once
    # (grouped reads); the B-tree, object-store and 4-thread resolution
    # suites run them under ASan over lending and copying files.
    shift
    run_one address -R \
      'kernels_test|btree|nested_index|multi_object_store|parallel_executor|query_differential_fuzz' \
      "$@"
    SIGSET_DISABLE_AVX2=1 run_one address -R \
      'kernels_test|btree|nested_index|multi_object_store|parallel_executor|query_differential_fuzz' \
      "$@"
    run_one thread -R \
      'kernels_test|nested_index|query_differential_fuzz' "$@"
    SIGSET_DISABLE_AVX2=1 run_one thread -R \
      'kernels_test|nested_index|query_differential_fuzz' "$@"
    # Timing under a sanitizer is meaningless, so the speedup gate runs the
    # regular build's bench — when it exists and the host dispatches avx2
    # (the portable merge has no 2x bar).
    if [[ -d build ]] && ./build-addresssan/bench/bench_kernels 2>/dev/null \
        | grep -q "dispatched to: avx2"; then
      cmake --build build --target bench_kernels -j "$(nproc)"
      ./build/bench/bench_kernels --min-intersect-speedup 2
    fi
    ;;
  joins)
    # The join executor partitions S by signature prefix, then probe
    # workers verify candidates with the unaligned-load intersection
    # kernels and merge per-worker pair vectors in worker order — ASan
    # vets the kernel tails and partition buffers, TSan the 4-thread
    # probe pools racing the differential fuzz's churn (both repeated
    # with AVX2 forced off so the portable kernels get the same
    # scrutiny).  model_vs_measured rides along so the join cost rows
    # are exercised under both sanitizers too.
    shift
    run_one address -R 'join_test|join_differential_fuzz|model_vs_measured' \
      "$@"
    SIGSET_DISABLE_AVX2=1 run_one address \
      -R 'join_test|join_differential_fuzz|model_vs_measured' "$@"
    run_one thread -R 'join_test|join_differential_fuzz' "$@"
    SIGSET_DISABLE_AVX2=1 run_one thread \
      -R 'join_test|join_differential_fuzz' "$@"
    ;;
  telemetry)
    # The flight recorder is a seqlock ring: writers claim slots with a
    # fetch_add and publish via per-slot sequence counters while readers
    # retry torn snapshots — TSan vets exactly that protocol (the
    # flight_recorder stress runs 4 writers against 2 dumping readers).
    # The telemetry integration suite then drives every wrapped entry
    # point, and ASan sweeps the exporters' string assembly.
    shift
    run_one thread -R \
      'flight_recorder|telemetry_test|metrics_test|query_trace' "$@"
    run_one address -R \
      'flight_recorder|telemetry_test|exporters_test|metrics_test' "$@"
    ;;
  all)
    run_one thread
    run_one address
    run_one undefined
    ;;
  *)
    echo "usage: $0 [thread|address|undefined|all|faults|obs|batch|kernels|wal|snapshots|telemetry|resolve|joins]" \
      "[ctest args...]" >&2
    exit 1
    ;;
esac

echo "sanitizer runs passed"
