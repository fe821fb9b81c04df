# Reruns `sva-timing analyze` on all ten built-in circuits (at 1 and at 4
# threads) and `sva-timing paths C880`, and compares stdout byte for byte
# with the committed files next to this script.  analyze's trailing
# `(N circuits, T threads, S s)` wall-time line is stripped before the
# comparison, so both thread counts must match the one analyze golden.
#
#   cmake -DCLI=<sva-timing> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P check_analyze_paths_cli.cmake
#
# To re-record after an intended output change, run in GOLDEN_DIR:
#   sva-timing analyze C432 C499 C880 C1355 C1908 C2670 C3540 C5315 C6288
#       C7552 --threads 1 --no-cache | grep -v ' circuits, ' > analyze_all.txt
#   sva-timing paths C880 --no-cache > paths_C880.txt

foreach(var CLI GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_analyze_paths_cli.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(circuits C432 C499 C880 C1355 C1908 C2670 C3540 C5315 C6288 C7552)
set(wall_line_re "\\([0-9]+ circuits, [0-9]+ threads, [0-9.]+ s\\)\n")

# run(<output file> <args>...): the CLI in WORK_DIR, stdout to the file.
function(run out)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${WORK_DIR}/${out}"
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sva-timing ${ARGN} exited ${rc}:\n${stderr_text}")
  endif()
endfunction()

set(mismatches "")
foreach(threads 1 4)
  set(out "analyze_t${threads}.txt")
  run(${out} analyze ${circuits} --threads ${threads} --no-cache)
  file(READ "${WORK_DIR}/${out}" text)
  string(REGEX MATCH "${wall_line_re}" wall_line "${text}")
  if(NOT wall_line)
    message(FATAL_ERROR "analyze --threads ${threads}: no wall-time line in ${out}")
  endif()
  string(REGEX REPLACE "${wall_line_re}" "" text "${text}")
  file(WRITE "${WORK_DIR}/${out}" "${text}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN_DIR}/analyze_all.txt" "${WORK_DIR}/${out}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatches "${out}")
  endif()
endforeach()

run(paths_C880.txt paths C880 --no-cache)
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${GOLDEN_DIR}/paths_C880.txt" "${WORK_DIR}/paths_C880.txt"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  list(APPEND mismatches "paths_C880.txt")
endif()

if(mismatches)
  message(FATAL_ERROR "CLI output differs from the golden files: "
                      "${mismatches} (compare ${WORK_DIR} with ${GOLDEN_DIR})")
endif()
message(STATUS "analyze (1 and 4 threads) and paths C880 match the golden files")
