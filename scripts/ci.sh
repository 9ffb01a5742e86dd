#!/usr/bin/env bash
# CI entry point: builds and runs the full test suite under three presets —
# plain, AddressSanitizer+UBSan, and ThreadSanitizer — each in its own build
# directory. The simulator is single-threaded coroutines, but the host-side
# bench harness and observers do touch std::atomic state, so TSan stays in
# the matrix.
#
#   scripts/ci.sh [preset ...]     presets: lint plain asan-ubsan tsan load
#                                           hetero dur
#
# With no arguments the lint gate plus all three build presets run. Set
# BIGK_CI_JOBS to override the parallelism (defaults to nproc). The `load`
# preset is the bigkload QoS gate: a TSan build of the load + serve suites,
# the multi-tenant concurrency tests, and the serve_load bench smoke with
# its schema/QoS assertions.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${BIGK_CI_JOBS:-$(nproc)}"

run_preset() {
  local name="$1"
  shift
  local build_dir="${repo_root}/build-ci-${name}"
  echo "=== ci preset ${name}: configure (${*:-no extra flags}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  echo "=== ci preset ${name}: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ci preset ${name}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  echo "=== ci preset ${name}: OK ==="
}

presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
  presets=(lint plain asan-ubsan tsan)
fi

for preset in "${presets[@]}"; do
  case "${preset}" in
    plain)
      run_preset plain
      # bigkprof perf-regression gate: rerun the fig6 stage bench at the
      # committed baseline's scale and fail on any timing / attribution /
      # traffic drift outside tolerance (also runs as the bench_prof_gate
      # ctest; running it by name here keeps the gate visible in CI logs).
      echo "=== ci preset plain: bench_compare perf gate ==="
      python3 "${repo_root}/scripts/bench_compare.py" \
        --baseline "${repo_root}/bench/BENCH_prof.json" \
        --bench "${repo_root}/build-ci-plain/bench/fig6_stages" \
        --scale 0.001
      # Smoke every table bench once (ctest runs only fig6_stages and the
      # serve benches). 0.002 is the smallest scale tried at which all ten
      # complete; below it some cells run out of device memory, and a failing
      # cell exits non-zero naming itself.
      echo "=== ci preset plain: table bench smoke (BIGK_SCALE=0.002) ==="
      for bench in table1_datasets fig4a_speedup fig4b_comp_comm \
          fig5_ablation fig6_stages table2_pattern ablation_design \
          uvm_comparison sensitivity_pcie hetero_sweep; do
        echo "--- ${bench}"
        BIGK_SCALE=0.002 "${repo_root}/build-ci-plain/bench/${bench}"
      done
      ;;
    asan-ubsan)
      # -fno-sanitize-recover makes every UBSan report abort its test, so
      # undefined behaviour fails ctest instead of only printing.
      run_preset asan-ubsan -DBIGK_SANITIZE=address,undefined \
        -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined
      # bigkfault drives the error paths the happy-path suites never reach
      # (chunk retry, degraded rings, quarantine/redispatch); run the fault
      # suites explicitly so a leak or UB on a recovery path fails the
      # preset by name.
      echo "=== ci preset asan-ubsan: fault tests ==="
      "${repo_root}/build-ci-asan-ubsan/tests/fault_plane_test"
      "${repo_root}/build-ci-asan-ubsan/tests/fault_queue_escalation_test"
      "${repo_root}/build-ci-asan-ubsan/tests/fault_cache_reset_test"
      "${repo_root}/build-ci-asan-ubsan/tests/fault_engine_recovery_test"
      "${repo_root}/build-ci-asan-ubsan/tests/fault_serve_recovery_test"
      ;;
    tsan)
      run_preset tsan -DBIGK_SANITIZE=thread
      # The serving-layer stress test is the sharpest probe for shared
      # mutable state across concurrent engines; run it explicitly (beyond
      # its ctest shard) so a TSan hit in it fails the preset by name.
      echo "=== ci preset tsan: serve stress test ==="
      "${repo_root}/build-ci-tsan/tests/serve_stress_test"
      # bigkprof: the full telemetry plane (tracer + registry + per-device
      # profilers + latency sketch + SLO monitor) under a 4-engine serve run;
      # a data race in any shared telemetry sink fails the preset by name.
      echo "=== ci preset tsan: concurrent telemetry test ==="
      "${repo_root}/build-ci-tsan/tests/obs_concurrent_telemetry_test"
      # bigkcache shares one chunk cache + pinned pool across every engine a
      # device runs; exercise the cache suites explicitly under TSan so a
      # data race on the shared cache state fails the preset by name.
      echo "=== ci preset tsan: cache tests ==="
      "${repo_root}/build-ci-tsan/tests/cache_chunk_cache_test"
      "${repo_root}/build-ci-tsan/tests/cache_pinned_pool_test"
      "${repo_root}/build-ci-tsan/tests/cache_engine_cache_test"
      # The fault plane is consulted from every worker an engine spawns and
      # the probe daemon mutates quarantine state concurrently with the
      # dispatch loop; run the fault suites explicitly under TSan too.
      echo "=== ci preset tsan: fault tests ==="
      "${repo_root}/build-ci-tsan/tests/fault_plane_test"
      "${repo_root}/build-ci-tsan/tests/fault_queue_escalation_test"
      "${repo_root}/build-ci-tsan/tests/fault_cache_reset_test"
      "${repo_root}/build-ci-tsan/tests/fault_engine_recovery_test"
      "${repo_root}/build-ci-tsan/tests/fault_serve_recovery_test"
      ;;
    load)
      # bigkload QoS gate. A TSan build, because the QoS plane threads new
      # shared state (WFQ stage, tenant accounting, autoscaler daemon)
      # through the concurrent engine pool: build the load suites + the
      # serve_load bench, run them, then the bench smoke with the WFQ-vs-
      # FIFO / fairness / autoscaler assertions at a tiny scale.
      load_dir="${repo_root}/build-ci-load"
      echo "=== ci preset load: configure (thread sanitizer) ==="
      cmake -B "${load_dir}" -S "${repo_root}" -DBIGK_SANITIZE=thread
      echo "=== ci preset load: build ==="
      cmake --build "${load_dir}" -j "${jobs}" --target \
        serve_wfq_test load_arrival_test load_generator_test load_qos_test \
        load_autoscale_test load_determinism_test serve_stress_test \
        serve_golden_test serve_throughput serve_load
      echo "=== ci preset load: load + serve suites under TSan ==="
      "${load_dir}/tests/serve_wfq_test"
      "${load_dir}/tests/load_arrival_test"
      "${load_dir}/tests/load_generator_test"
      # The multi-tenant concurrency probes: every QoS feature at once on a
      # multi-device pool, and thousands of closed-loop client coroutines.
      "${load_dir}/tests/load_qos_test"
      "${load_dir}/tests/load_autoscale_test"
      "${load_dir}/tests/load_determinism_test"
      "${load_dir}/tests/serve_stress_test"
      # Pinned serve outputs for both binding modes (eager and late).
      "${load_dir}/tests/serve_golden_test"
      # The bench smoke runs against an unsanitized build: the offered-load
      # sweep is 10-20x slower under TSan, blowing past the checker's
      # per-binary subprocess timeout. The QoS assertions don't need TSan —
      # the concurrency coverage is the test suites above.
      load_bench_dir="${repo_root}/build-ci-load-bench"
      echo "=== ci preset load: configure bench build (no sanitizer) ==="
      cmake -B "${load_bench_dir}" -S "${repo_root}"
      echo "=== ci preset load: build bench ==="
      cmake --build "${load_bench_dir}" -j "${jobs}" --target \
        serve_throughput serve_load
      echo "=== ci preset load: serve_load bench smoke + QoS assertions ==="
      python3 "${repo_root}/scripts/check_serve_bench.py" \
        "${load_bench_dir}/bench/serve_throughput" \
        "${load_bench_dir}/bench/serve_load"
      echo "=== ci preset load: OK ==="
      ;;
    hetero)
      # bigkhetero co-execution gate. A TSan build, because co-execution is
      # exactly the shape that breeds races: engine pipeline and host-core
      # workers advancing concurrently over the same streams and (delta-
      # merged) tables, plus the serve spill worker running beside the
      # device workers. Then the ratio-sweep and spill bench smokes on an
      # unsanitized build (sim-time benches are meaningless under TSan).
      hetero_dir="${repo_root}/build-ci-hetero"
      echo "=== ci preset hetero: configure (thread sanitizer) ==="
      cmake -B "${hetero_dir}" -S "${repo_root}" -DBIGK_SANITIZE=thread
      echo "=== ci preset hetero: build ==="
      cmake --build "${hetero_dir}" -j "${jobs}" --target \
        hetero_splitter_test hetero_run_test serve_spill_test \
        bench_harness_flags_test
      echo "=== ci preset hetero: co-execution tests under TSan ==="
      "${hetero_dir}/tests/hetero_splitter_test"
      "${hetero_dir}/tests/hetero_run_test"
      "${hetero_dir}/tests/serve_spill_test"
      "${hetero_dir}/tests/bench_harness_flags_test"
      hetero_bench_dir="${repo_root}/build-ci-hetero-bench"
      echo "=== ci preset hetero: configure bench build (no sanitizer) ==="
      cmake -B "${hetero_bench_dir}" -S "${repo_root}"
      echo "=== ci preset hetero: build benches ==="
      cmake --build "${hetero_bench_dir}" -j "${jobs}" --target \
        hetero_sweep serve_throughput
      echo "=== ci preset hetero: ratio-sweep bench smoke ==="
      BIGK_SCALE=0.001 "${hetero_bench_dir}/bench/hetero_sweep"
      echo "=== ci preset hetero: serve spill bench smoke + assertions ==="
      python3 "${repo_root}/scripts/check_serve_bench.py" \
        "${hetero_bench_dir}/bench/serve_throughput"
      echo "=== ci preset hetero: OK ==="
      ;;
    dur)
      # bigkdur durability gate. An ASan+UBSan build of the integrity /
      # scrub / journal / crash-restart suites — the custody-chain and
      # resume paths shuffle raw byte spans and replay partially-built
      # state, exactly where a lifetime bug would hide — plus the crash-
      # restart suite under TSan (a restarted server rebuilds its worker
      # pool over live journal state), then the serve bench smoke with the
      # dur.detected == dur.injected and resume-vs-restart assertions.
      dur_dir="${repo_root}/build-ci-dur"
      echo "=== ci preset dur: configure (address+undefined sanitizer) ==="
      cmake -B "${dur_dir}" -S "${repo_root}" -DBIGK_SANITIZE=address,undefined
      echo "=== ci preset dur: build ==="
      cmake --build "${dur_dir}" -j "${jobs}" --target \
        dur_journal_test dur_scrub_test dur_integrity_test dur_resume_test \
        serve_health_flap_test check_pipecheck_test
      echo "=== ci preset dur: durability suites under ASan/UBSan ==="
      "${dur_dir}/tests/dur_journal_test"
      "${dur_dir}/tests/dur_scrub_test"
      "${dur_dir}/tests/dur_integrity_test"
      "${dur_dir}/tests/dur_resume_test"
      "${dur_dir}/tests/serve_health_flap_test"
      "${dur_dir}/tests/check_pipecheck_test"
      dur_tsan_dir="${repo_root}/build-ci-dur-tsan"
      echo "=== ci preset dur: configure (thread sanitizer) ==="
      cmake -B "${dur_tsan_dir}" -S "${repo_root}" -DBIGK_SANITIZE=thread
      echo "=== ci preset dur: build crash-restart suite ==="
      cmake --build "${dur_tsan_dir}" -j "${jobs}" --target dur_resume_test
      echo "=== ci preset dur: crash-restart under TSan ==="
      "${dur_tsan_dir}/tests/dur_resume_test"
      dur_bench_dir="${repo_root}/build-ci-dur-bench"
      echo "=== ci preset dur: configure bench build (no sanitizer) ==="
      cmake -B "${dur_bench_dir}" -S "${repo_root}"
      echo "=== ci preset dur: build bench ==="
      cmake --build "${dur_bench_dir}" -j "${jobs}" --target serve_throughput
      echo "=== ci preset dur: serve bench smoke + durability assertions ==="
      python3 "${repo_root}/scripts/check_serve_bench.py" \
        "${dur_bench_dir}/bench/serve_throughput"
      echo "=== ci preset dur: OK ==="
      ;;
    lint)
      # bigkstatic gate: build only the bigklint CLI, verify every
      # registered app kernel against the static contracts with the seeded
      # violators armed, and lock the JSON report schema. Fast (no test
      # suite), so it fronts the default matrix and fails first on a
      # contract or schema break.
      lint_dir="${repo_root}/build-ci-lint"
      echo "=== ci preset lint: configure ==="
      cmake -B "${lint_dir}" -S "${repo_root}"
      echo "=== ci preset lint: build bigklint ==="
      cmake --build "${lint_dir}" -j "${jobs}" --target bigklint
      echo "=== ci preset lint: bigklint --violators ==="
      "${lint_dir}/src/bigklint" --violators
      echo "=== ci preset lint: check_lint schema gate ==="
      python3 "${repo_root}/scripts/check_lint.py" "${lint_dir}/src/bigklint"
      echo "=== ci preset lint: OK ==="
      ;;
    tidy)
      # Optional extra: static analysis build (no tests; compile = analyze;
      # .clang-tidy sets WarningsAsErrors so any finding fails the build).
      run_preset tidy -DBIGK_CLANG_TIDY=ON
      ;;
    *)
      echo "ci.sh: unknown preset '${preset}'" >&2
      echo "usage: scripts/ci.sh [lint|plain|asan-ubsan|tsan|load|hetero|dur|tidy ...]" >&2
      exit 2
      ;;
  esac
done

echo "ci.sh: all presets passed: ${presets[*]}"
