# ctest -P script: runs fairkm_cli end-to-end on a tiny generated CSV and
# checks the exit code and the output schema (all input columns preserved,
# "cluster" column appended, one in-range id per row).
#
# Expects -DFAIRKM_CLI=<path to binary> -DWORK_DIR=<scratch dir>.

if(NOT FAIRKM_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DFAIRKM_CLI=... -DWORK_DIR=... -P cli_smoke_test.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(input "${WORK_DIR}/tiny.csv")
set(output "${WORK_DIR}/tiny_clustered.csv")
file(REMOVE "${output}")

# Two well-separated numeric blobs; a binary sensitive attribute split across
# both blobs so FairKM has something to balance.
set(rows "x,y,gender\n")
foreach(i RANGE 0 7)
  math(EXPR wiggle "${i} % 3")
  math(EXPR parity "${i} % 2")
  if(parity EQUAL 0)
    set(g "m")
  else()
    set(g "f")
  endif()
  string(APPEND rows "0.${wiggle},1.${wiggle},${g}\n")
  string(APPEND rows "9.${wiggle},8.${wiggle},${g}\n")
endforeach()
file(WRITE "${input}" "${rows}")

execute_process(
  COMMAND "${FAIRKM_CLI}"
          --input "${input}" --output "${output}"
          --sensitive gender --method fairkm --k 2 --seed 7
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)

if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "fairkm_cli exited with ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()

# The report must mention the run shape and the fairness table.
foreach(needle "n = 16 rows" "clustering objective" "Sensitive attribute")
  string(FIND "${stdout}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "stdout missing \"${needle}\":\n${stdout}")
  endif()
endforeach()

if(NOT EXISTS "${output}")
  message(FATAL_ERROR "fairkm_cli did not write ${output}")
endif()

file(STRINGS "${output}" lines)
list(LENGTH lines n_lines)
if(NOT n_lines EQUAL 17)
  message(FATAL_ERROR "expected header + 16 rows in output, got ${n_lines} lines")
endif()

list(GET lines 0 header)
if(NOT header STREQUAL "x,y,gender,cluster")
  message(FATAL_ERROR "unexpected output header: ${header}")
endif()

list(SUBLIST lines 1 -1 body)
foreach(line IN LISTS body)
  if(NOT line MATCHES "^[0-9.]+,[0-9.]+,[mf],[01]$")
    message(FATAL_ERROR "malformed output row: ${line}")
  endif()
endforeach()

message(STATUS "fairkm_cli smoke test passed")

# --- Durable checkpoints: run with auto-checkpointing, then resume. ---

set(ckpt_dir "${WORK_DIR}/ckpt")
file(REMOVE_RECURSE "${ckpt_dir}")

execute_process(
  COMMAND "${FAIRKM_CLI}"
          --input "${input}" --sensitive gender --method fairkm --k 2 --seed 7
          --checkpoint-dir "${ckpt_dir}" --checkpoint-every 1
          --max-iterations 2
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "checkpointed run exited with ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()
string(FIND "${stdout}" "checkpoints: ${ckpt_dir}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stdout missing the checkpoint report line:\n${stdout}")
endif()

file(GLOB ckpt_files "${ckpt_dir}/*.fkmc")
list(LENGTH ckpt_files n_ckpts)
if(n_ckpts EQUAL 0)
  message(FATAL_ERROR "no checkpoint files written to ${ckpt_dir}")
endif()

execute_process(
  COMMAND "${FAIRKM_CLI}"
          --input "${input}" --sensitive gender --method fairkm --k 2 --seed 7
          --checkpoint-dir "${ckpt_dir}" --checkpoint-every 1 --resume
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "resumed run exited with ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()
string(FIND "${stdout}" "converged = yes" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "resumed run did not converge:\n${stdout}")
endif()

# --- Fault injection: an injected checkpoint-fsync failure must surface as a
# clean non-zero exit with the injected status, not a crash. ---

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "FAIRKM_FAULT=checkpoint.fsync=error"
          "${FAIRKM_CLI}"
          --input "${input}" --sensitive gender --method fairkm --k 2 --seed 7
          --checkpoint-dir "${ckpt_dir}" --checkpoint-every 1
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT exit_code EQUAL 1)
  message(FATAL_ERROR "fault-injected run should exit 1, got ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()
string(FIND "${stderr}" "injected fault at checkpoint.fsync" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stderr missing the injected fault status:\n${stderr}")
endif()

message(STATUS "fairkm_cli checkpoint + fault-injection smoke test passed")

# --- Out-of-core: a session over the mmap store must produce the same
# output CSV as the in-memory run at equal options and seed (bit-identical
# trajectory), with and without mini-batching, and report the store. ---

set(store_file "${WORK_DIR}/tiny.fkps")
foreach(minibatch 4 0)
  set(mem_output "${WORK_DIR}/tiny_mem_${minibatch}.csv")
  set(mmap_output "${WORK_DIR}/tiny_mmap_${minibatch}.csv")
  file(REMOVE "${mem_output}" "${mmap_output}" "${store_file}")

  execute_process(
    COMMAND "${FAIRKM_CLI}"
            --input "${input}" --output "${mem_output}"
            --sensitive gender --method fairkm --k 2 --seed 7
            --minibatch ${minibatch}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "in-memory run (minibatch ${minibatch}) exited with ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()

  execute_process(
    COMMAND "${FAIRKM_CLI}"
            --input "${input}" --output "${mmap_output}"
            --sensitive gender --method fairkm --k 2 --seed 7
            --minibatch ${minibatch}
            --store "mmap:${store_file}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "mmap run (minibatch ${minibatch}) exited with ${exit_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  string(FIND "${stdout}" "store: ${store_file}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "stdout missing \"store: ${store_file}\":\n${stdout}")
  endif()
  if(NOT EXISTS "${store_file}")
    message(FATAL_ERROR "mmap run did not write the store file ${store_file}")
  endif()

  file(READ "${mem_output}" mem_csv)
  file(READ "${mmap_output}" mmap_csv)
  if(NOT mem_csv STREQUAL mmap_csv)
    message(FATAL_ERROR "mmap output (minibatch ${minibatch}) differs from the in-memory run:\n--- mem:\n${mem_csv}\n--- mmap:\n${mmap_csv}")
  endif()
endforeach()

message(STATUS "fairkm_cli out-of-core smoke test passed")
