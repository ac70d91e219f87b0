# Runs bench_paper with its CSVs written to OUT_DIR and fails unless the
# scorecard it writes is byte-identical to the checked-in one. Every
# reproduced number is deterministic, so any difference is drift.
#
#   cmake -DBENCH=<bench_paper> -DOUT_DIR=<dir> -DEXPECTED=<BENCH_paper.csv>
#         -P paper_scorecard.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "AUTOCOMM_CSV_DIR=${OUT_DIR}" "${BENCH}"
    OUTPUT_FILE "${OUT_DIR}/bench_paper.log"
    ERROR_FILE "${OUT_DIR}/bench_paper.log"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper exited with ${rc}; "
                        "see ${OUT_DIR}/bench_paper.log")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/BENCH_paper.csv" "${EXPECTED}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT_DIR}/BENCH_paper.csv differs from "
                        "${EXPECTED}: the reproduced scorecard drifted")
endif()
