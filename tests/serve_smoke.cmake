# End-to-end smoke of the sweep-as-a-service workflow, run by ctest:
#
#   1. start `pofl_cli serve` on an ephemeral port (scraping the bound port
#      from its "listening on" line), submit the canonical hubring sweep
#      twice via `pofl_cli submit` — the cold response must byte-check
#      against tests/baselines/cli_zoo_procs.json, the repeat must answer
#      from the cache ("cached":true) with the identical bytes;
#   2. protocol robustness: a malformed request is refused with a JSON
#      error (submit exits non-zero) and the daemon keeps serving;
#   3. clean shutdown: a shutdown request stops the daemon (no lingering
#      process, "shutdown complete" in its log);
#   4. descriptor exhaustion: under `ulimit -n 16`, a burst of 20 held
#      connections makes accept() fail with EMFILE; the daemon must back
#      off, answer a ping once they hang up, and still shut down cleanly;
#   5. multi-host fan-out: the same sweep via `--procs 4 --hosts ...` over
#      BOTH transports — plain local fork/exec and the ssh transport routed
#      through a stub that executes the remote command locally — each
#      merging bit-identically to the same unsharded baseline;
#   6. fault recovery over the launcher: POFL_FAULT=crash:2:0 kills shard 2
#      on its first attempt; the supervisor's retry must recover and the
#      merge must still byte-check.
#
# Usage: cmake -DPOFL_CLI=<exe> -DBASELINE=<json> -DWORK_DIR=<dir>
#              -P serve_smoke.cmake

if(NOT POFL_CLI OR NOT BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DPOFL_CLI=..., -DBASELINE=... and -DWORK_DIR=...")
endif()

set(GRAPH "${WORK_DIR}/zoo/synth-hubring-40-214.graphml")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_success out_var)
  execute_process(COMMAND ${POFL_CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect_success AND NOT rc EQUAL 0)
    message(FATAL_ERROR "pofl_cli ${ARGN} failed (rc=${rc}): ${out}${err}")
  endif()
  if(NOT expect_success AND rc EQUAL 0)
    message(FATAL_ERROR "pofl_cli ${ARGN} succeeded but must be rejected")
  endif()
  if(out_var)
    set(${out_var} "${out}" PARENT_SCOPE)
  endif()
endfunction()

run_cli(TRUE "" export-zoo "${WORK_DIR}/zoo")
if(NOT EXISTS "${GRAPH}")
  message(FATAL_ERROR "export-zoo did not produce ${GRAPH}")
endif()

# ---- 1. daemon lifecycle + cached/uncached byte parity ----------------------

# Starts `pofl_cli serve` in the background after the shell prelude
# `setup` (e.g. a ulimit), logging to `log`; sets SERVE_PID and TARGET. The
# daemon prints "listening on 127.0.0.1:<port>" once bound; poll for it.
function(start_daemon setup log)
  execute_process(
    COMMAND sh -c
            "(${setup} exec '${POFL_CLI}' serve '${GRAPH}' --port 0) > '${log}' 2>&1 & echo $!"
    OUTPUT_VARIABLE pid OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(NOT pid MATCHES "^[0-9]+$")
    message(FATAL_ERROR "could not start the serve daemon (pid: '${pid}')")
  endif()
  set(port "")
  foreach(attempt RANGE 50)
    if(EXISTS "${log}")
      file(READ "${log}" log_text)
      if(log_text MATCHES "listening on 127\\.0\\.0\\.1:([0-9]+)")
        set(port "${CMAKE_MATCH_1}")
        break()
      endif()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  if(NOT port)
    execute_process(COMMAND sh -c "kill -9 ${pid} 2>/dev/null || true")
    message(FATAL_ERROR "serve daemon never reported its port; log: ${log}")
  endif()
  set(SERVE_PID "${pid}" PARENT_SCOPE)
  set(TARGET "127.0.0.1:${port}" PARENT_SCOPE)
endfunction()

# Tear the daemon down on any failure while one runs.
function(fail_with_daemon message)
  execute_process(COMMAND sh -c "kill -9 ${SERVE_PID} 2>/dev/null || true")
  message(FATAL_ERROR "${message}")
endfunction()

# Sends a shutdown request and waits for a clean exit ("shutdown complete"
# in `log`, no lingering process).
function(shutdown_daemon log)
  run_cli(TRUE "" submit "${TARGET}" "{\"cmd\":\"shutdown\"}")
  set(stopped FALSE)
  foreach(attempt RANGE 50)
    execute_process(COMMAND sh -c "kill -0 ${SERVE_PID} 2>/dev/null"
                    RESULT_VARIABLE alive_rc)
    if(NOT alive_rc EQUAL 0)
      set(stopped TRUE)
      break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  endforeach()
  if(NOT stopped)
    fail_with_daemon("daemon still running after a shutdown request")
  endif()
  file(READ "${log}" log_text)
  if(NOT log_text MATCHES "shutdown complete")
    message(FATAL_ERROR "daemon exited without a clean shutdown; log: ${log_text}")
  endif()
endfunction()

set(SERVE_LOG "${WORK_DIR}/serve.log")
start_daemon("" "${SERVE_LOG}")

set(REQUEST "{\"cmd\":\"sweep\",\"graph\":\"synth-hubring-40-214\",\"mode\":\"iid\",\"p\":0.05,\"trials\":20,\"seed\":1}")

# Cold query: computed now, byte-checked against the golden --procs
# recording (daemon sweeps are oracle-free like shard workers, so the bytes
# must agree exactly).
run_cli(TRUE cold_out submit "${TARGET}" "${REQUEST}"
        --json "${WORK_DIR}/cold.json" --check "${BASELINE}")
if(NOT cold_out MATCHES "\"cached\":false")
  fail_with_daemon("first query must be uncached: ${cold_out}")
endif()

# Repeat: answered from the cache, still byte-identical.
run_cli(TRUE warm_out submit "${TARGET}" "${REQUEST}"
        --json "${WORK_DIR}/warm.json" --check "${BASELINE}")
if(NOT warm_out MATCHES "\"cached\":true")
  fail_with_daemon("repeat query must hit the cache: ${warm_out}")
endif()
file(READ "${WORK_DIR}/cold.json" cold_bytes)
file(READ "${WORK_DIR}/warm.json" warm_bytes)
file(READ "${BASELINE}" golden_bytes)
if(NOT cold_bytes STREQUAL golden_bytes OR NOT warm_bytes STREQUAL golden_bytes)
  fail_with_daemon("cached/uncached submit bytes differ from the checked-in baseline")
endif()

run_cli(TRUE stats_out submit "${TARGET}" "{\"cmd\":\"stats\"}")
if(NOT stats_out MATCHES "\"hits\":1")
  fail_with_daemon("stats must report exactly one cache hit: ${stats_out}")
endif()

# ---- 2. malformed request: JSON error, daemon survives ----------------------

run_cli(FALSE "" submit "${TARGET}" "{\"cmd\":\"sweep\",\"graph\":\"no-such-graph\",\"mode\":\"iid\",\"p\":0.05,\"trials\":20}")
run_cli(FALSE "" submit "${TARGET}" "this is not json")
run_cli(TRUE ping_out submit "${TARGET}" "{\"cmd\":\"ping\"}")
if(NOT ping_out MATCHES "\"pong\":true")
  fail_with_daemon("daemon did not survive malformed requests: ${ping_out}")
endif()

# ---- 3. clean shutdown ------------------------------------------------------

shutdown_daemon("${SERVE_LOG}")

# ---- 4. descriptor exhaustion: the daemon backs off and keeps serving -------

# Under a 16-descriptor limit, 20 connections held open at once run the
# daemon out of descriptors: accept() fails with EMFILE until the holders
# hang up. The daemon must back off and keep accepting, not shut down.
set(FD_LOG "${WORK_DIR}/serve_fd.log")
start_daemon("ulimit -n 16 &&" "${FD_LOG}")
string(REPLACE ":" "/" tcp_path "${TARGET}")
execute_process(
  COMMAND bash -c "for i in $(seq 20); do exec {fd}<>/dev/tcp/${tcp_path} || exit 1; done; sleep 1"
  RESULT_VARIABLE burst_rc ERROR_VARIABLE burst_err)
if(NOT burst_rc EQUAL 0)
  fail_with_daemon("daemon refused the 20-connection burst: ${burst_err}")
endif()
run_cli(TRUE ping_out submit "${TARGET}" "{\"cmd\":\"ping\"}")
if(NOT ping_out MATCHES "\"pong\":true")
  fail_with_daemon("daemon stopped serving after descriptor exhaustion: ${ping_out}")
endif()
shutdown_daemon("${FD_LOG}")

# ---- 5. multi-host fan-out: both transports, 4 shards, bit-exact merge ------

# The ssh stub drops the hostname and runs the remote command locally — the
# full transport path (remote command quoting, env forwarding, stdout
# streaming back into the local shard file) minus the network.
set(SSH_STUB "${WORK_DIR}/sshstub.sh")
file(WRITE "${SSH_STUB}" "#!/bin/sh\nshift\nexec sh -c \"$*\"\n")
file(CHMOD "${SSH_STUB}" PERMISSIONS OWNER_READ OWNER_WRITE OWNER_EXECUTE
     GROUP_READ GROUP_EXECUTE WORLD_READ WORLD_EXECUTE)

run_cli(TRUE "" sweep "${GRAPH}" 0.05 20 --procs 4 --hosts local
        --json "${WORK_DIR}/fanout_local.json" --check "${BASELINE}")
run_cli(TRUE "" sweep "${GRAPH}" 0.05 20 --procs 4 --hosts "ssh:testhost"
        --ssh-cmd "${SSH_STUB}"
        --json "${WORK_DIR}/fanout_ssh.json" --check "${BASELINE}")
file(READ "${WORK_DIR}/fanout_local.json" local_bytes)
file(READ "${WORK_DIR}/fanout_ssh.json" ssh_bytes)
if(NOT local_bytes STREQUAL golden_bytes OR NOT ssh_bytes STREQUAL golden_bytes)
  message(FATAL_ERROR "transport fan-out bytes differ from the unsharded baseline")
endif()

# Mixed transports round-robin too (shards alternate local / stubbed ssh).
run_cli(TRUE "" sweep "${GRAPH}" 0.05 20 --procs 4 --hosts "local,ssh:testhost"
        --ssh-cmd "${SSH_STUB}"
        --json "${WORK_DIR}/fanout_mixed.json" --check "${BASELINE}")

# ---- 6. killed worker recovers through the supervisor over the transport ----

execute_process(COMMAND ${CMAKE_COMMAND} -E env "POFL_FAULT=crash:2:0"
                ${POFL_CLI} sweep "${GRAPH}" 0.05 20 --procs 4
                --hosts "ssh:testhost" --ssh-cmd "${SSH_STUB}"
                --json "${WORK_DIR}/fanout_crash.json" --check "${BASELINE}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crash-injected transport run did not recover (rc=${rc}): ${err}")
endif()
file(READ "${WORK_DIR}/fanout_crash.json" crash_bytes)
if(NOT crash_bytes STREQUAL golden_bytes)
  message(FATAL_ERROR "recovered fan-out bytes differ from the unsharded baseline")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "serve smoke OK")
