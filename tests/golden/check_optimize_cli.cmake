# Reruns `sva-timing optimize` on C432 and C880 at both corners, at 1 and
# at 4 threads, and compares stdout, the move CSV and the exit code with
# the committed files next to this script.  The CLI runs inside WORK_DIR
# with a relative --csv path, so the trailing `wrote PATH` line reads the
# same on every checkout.  C880 at the traditional corner misses timing,
# so that case exits 1; the others exit 0.
#
#   cmake -DCLI=<sva-timing> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P check_optimize_cli.cmake
#
# To re-record after an intended output change, run in GOLDEN_DIR:
#   sva-timing optimize C432 --corner sva --threads 1 --no-cache
#       --csv optimize_C432_sva.csv > optimize_C432_sva.txt
# (and likewise for C432/trad, C880/sva and C880/trad).

foreach(var CLI GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_optimize_cli.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")

# <circuit>:<corner>:<expected exit code>
set(cases C432:sva:0 C432:trad:0 C880:sva:0 C880:trad:1)

set(mismatches "")
foreach(threads 1 4)
  set(dir "${WORK_DIR}/t${threads}")
  file(MAKE_DIRECTORY "${dir}")
  foreach(case ${cases})
    string(REPLACE ":" ";" parts "${case}")
    list(GET parts 0 circuit)
    list(GET parts 1 corner)
    list(GET parts 2 expected_rc)
    set(stem "optimize_${circuit}_${corner}")
    execute_process(
      COMMAND "${CLI}" optimize ${circuit} --corner ${corner}
              --threads ${threads} --no-cache --csv ${stem}.csv
      WORKING_DIRECTORY "${dir}"
      OUTPUT_FILE "${dir}/${stem}.txt"
      ERROR_VARIABLE stderr_text
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL expected_rc)
      message(FATAL_ERROR "sva-timing optimize ${circuit} --corner ${corner} "
                          "--threads ${threads} exited ${rc}, expected "
                          "${expected_rc}:\n${stderr_text}")
    endif()
    foreach(ext txt csv)
      execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${GOLDEN_DIR}/${stem}.${ext}" "${dir}/${stem}.${ext}"
        RESULT_VARIABLE differs)
      if(NOT differs EQUAL 0)
        list(APPEND mismatches "t${threads}/${stem}.${ext}")
      endif()
    endforeach()
  endforeach()
endforeach()

if(mismatches)
  message(FATAL_ERROR "optimize output differs from the golden files: "
                      "${mismatches} (compare ${WORK_DIR} with ${GOLDEN_DIR})")
endif()
message(STATUS "optimize C432/C880 (sva and trad, 1 and 4 threads) match the golden files")
