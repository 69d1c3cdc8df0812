# CTest script: exercise the perf-regression tracker end to end. Two
# back-to-back quick bench_simperf runs stand in for "baseline" and
# "current"; check_regress.py compares their reports and their run
# manifests. The tolerance is deliberately generous (60%, on top of
# the checker's CoV widening) — this smoke validates the plumbing and
# the comparison logic, not the host's wall-clock stability; the CI
# host may be a single loaded core.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/baseline ${WORK_DIR}/current)

foreach(leg baseline current)
    execute_process(
        COMMAND ${RUNNER} --quick --jobs 2
            --manifest ${WORK_DIR}/${leg}/manifest.json
        WORKING_DIRECTORY ${WORK_DIR}/${leg}
        RESULT_VARIABLE run_rc
        OUTPUT_VARIABLE run_out
        ERROR_VARIABLE run_err)
    if(NOT run_rc EQUAL 0)
        message(FATAL_ERROR
            "bench_simperf (${leg}) failed (${run_rc}):\n"
            "${run_out}\n${run_err}")
    endif()
endforeach()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} --tolerance-pct 60
        ${WORK_DIR}/baseline/BENCH_simperf.json
        ${WORK_DIR}/current/BENCH_simperf.json
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_regress.py (reports) failed (${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")

execute_process(
    COMMAND ${PYTHON} ${CHECKER} --tolerance-pct 60
        ${WORK_DIR}/baseline/manifest.json
        ${WORK_DIR}/current/manifest.json
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_regress.py (manifests) failed (${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")

# A fabricated 10x slowdown must be caught: rewrite the current
# report's throughput numbers (only workload rows carry them) and
# require the checker to exit 1.
file(READ ${WORK_DIR}/current/BENCH_simperf.json report_text)
string(REGEX REPLACE "\"mips\": [0-9.]+" "\"mips\": 0.0001"
    report_text "${report_text}")
string(REGEX REPLACE "\"cyclesPerSec\": [0-9.]+" "\"cyclesPerSec\": 1"
    report_text "${report_text}")
file(WRITE ${WORK_DIR}/current/slow.json "${report_text}")
execute_process(
    COMMAND ${PYTHON} ${CHECKER} --tolerance-pct 60
        ${WORK_DIR}/baseline/BENCH_simperf.json
        ${WORK_DIR}/current/slow.json
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 1)
    message(FATAL_ERROR
        "check_regress.py missed a fabricated 10x regression "
        "(exit ${check_rc}, want 1):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "fabricated regression correctly rejected")
