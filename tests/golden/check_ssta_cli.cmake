# Reruns `sva-timing ssta` on the golden circuits and compares stdout and
# the criticality CSV byte for byte with the committed files next to this
# script.  The CLI runs inside WORK_DIR with a relative --csv path, so the
# trailing `wrote PATH` line reads the same on every checkout.
#
#   cmake -DCLI=<sva-timing> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P check_ssta_cli.cmake
#
# To re-record after an intended output change, run the same command in
# GOLDEN_DIR:  sva-timing ssta C432 --threads 1 --no-cache
#              --csv ssta_C432.csv > ssta_C432.txt

foreach(var CLI GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_ssta_cli.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(mismatches "")
foreach(circuit C432 C880)
  set(stem "ssta_${circuit}")
  execute_process(
    COMMAND "${CLI}" ssta ${circuit} --threads 1 --no-cache --csv ${stem}.csv
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${WORK_DIR}/${stem}.txt"
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sva-timing ssta ${circuit} exited ${rc}:\n${stderr_text}")
  endif()
  foreach(ext txt csv)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${GOLDEN_DIR}/${stem}.${ext}" "${WORK_DIR}/${stem}.${ext}"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(APPEND mismatches "${stem}.${ext}")
    endif()
  endforeach()
endforeach()

if(mismatches)
  message(FATAL_ERROR "ssta output differs from the golden files: "
                      "${mismatches} (compare ${WORK_DIR} with ${GOLDEN_DIR})")
endif()
message(STATUS "ssta C432/C880 stdout and CSV match the golden files")
