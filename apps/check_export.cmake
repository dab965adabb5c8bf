# Runs `hare schedule --export PREFIX` and checks that it writes
# PREFIX_tasks.csv and PREFIX_jobs.csv, each starting with the header that
# src/sim/export.hpp documents, and one job row per job of the trace.
#
#   cmake -DHARE=<hare binary> -DTRACE=<trace file> -DJOBS=<job count>
#         -DPREFIX=<export prefix> -P check_export.cmake
file(REMOVE ${PREFIX}_tasks.csv ${PREFIX}_jobs.csv)
execute_process(
  COMMAND ${HARE} schedule --trace ${TRACE} --gpus 8 --seed 7 --export ${PREFIX}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "hare schedule --export exited with ${status}")
endif()

function(check_header file expected)
  if(NOT EXISTS ${file})
    message(FATAL_ERROR "${file} was not written")
  endif()
  file(STRINGS ${file} lines)
  list(GET lines 0 header)
  if(NOT header STREQUAL expected)
    message(FATAL_ERROR "${file}: header '${header}', expected '${expected}'")
  endif()
  set(rows ${lines} PARENT_SCOPE)
endfunction()

check_header(${PREFIX}_tasks.csv
  "task,job,job_name,model,round,slot,gpu,gpu_type,ready,start,switch_s,compute_start,compute_end,sync_end,model_resident")
check_header(${PREFIX}_jobs.csv
  "job,name,model,weight,arrival,completion,jct,rounds,tasks_per_round")
list(LENGTH rows row_count)
math(EXPR job_rows "${row_count} - 1")
if(NOT job_rows EQUAL JOBS)
  message(FATAL_ERROR "${PREFIX}_jobs.csv: ${job_rows} job rows, expected ${JOBS}")
endif()
