# Drives the CLI tools end to end; any nonzero exit fails the test.
execute_process(
  COMMAND ${LRB_GEN} --jobs 80 --procs 8 --placement hotspot --seed 5
  OUTPUT_FILE ${WORK_DIR}/roundtrip.lrb RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen failed: ${rc}")
endif()
# Registry names and aliases alike; mp-ls (an alias of local-search) runs
# last, so lrb_eval below checks its assignment.
foreach(algo lpt local-search mp-ls)
  execute_process(
    COMMAND ${LRB_SOLVE} ${WORK_DIR}/roundtrip.lrb --algo ${algo} --k 6
            --out ${WORK_DIR}/roundtrip.assign RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lrb_solve --algo ${algo} failed: ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND ${LRB_EVAL} ${WORK_DIR}/roundtrip.lrb ${WORK_DIR}/roundtrip.assign
  RESULT_VARIABLE rc OUTPUT_VARIABLE eval_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_eval failed: ${rc}")
endif()
if(NOT eval_out MATCHES "moves:")
  message(FATAL_ERROR "lrb_eval output missing report: ${eval_out}")
endif()
execute_process(
  COMMAND ${LRB_SWEEP} ${WORK_DIR}/roundtrip.lrb --k 2,4 --csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE sweep_out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_sweep failed: ${rc}")
endif()
# One row per (unit-cost registry backend, k).
foreach(algo greedy m-partition best-of lpt local-search)
  if(NOT sweep_out MATCHES "\n${algo},2,[^\n]*\n${algo},4,")
    message(FATAL_ERROR "lrb_sweep: no ${algo} rows for k = 2,4: ${sweep_out}")
  endif()
endforeach()
string(REGEX MATCHALL "\n" sweep_lines "${sweep_out}")
list(LENGTH sweep_lines sweep_rows)
if(NOT sweep_rows EQUAL 11)  # the header + 5 backends x 2 budgets
  message(FATAL_ERROR "lrb_sweep printed ${sweep_rows} lines: ${sweep_out}")
endif()

# ---------------------------------------------------------------------------
# Malformed-input regressions: every tool must reject bad input with a
# nonzero exit and a diagnostic - never hang, wrap, crash, or silently
# accept (fuzz repros depend on the parser being trustworthy).

# Negative --jobs used to wrap through size_t to ~2^64 and hang the
# generator; it must be rejected up front.
execute_process(
  COMMAND ${LRB_GEN} --jobs -5
  RESULT_VARIABLE rc ERROR_VARIABLE gen_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen accepted --jobs -5")
endif()
if(NOT gen_err MATCHES "jobs")
  message(FATAL_ERROR "lrb_gen --jobs -5 gave no diagnostic: ${gen_err}")
endif()

# Unknown flags are typos, not no-ops.
execute_process(
  COMMAND ${LRB_GEN} --jbos 10
  RESULT_VARIABLE rc ERROR_VARIABLE gen_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_gen accepted unknown flag --jbos")
endif()

# Garbage instead of an instance: parse diagnostic, nonzero exit.
file(WRITE ${WORK_DIR}/garbage.lrb "this is not an instance\n")
execute_process(
  COMMAND ${LRB_EVAL} ${WORK_DIR}/garbage.lrb ${WORK_DIR}/roundtrip.assign
  RESULT_VARIABLE rc ERROR_VARIABLE eval_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_eval accepted a garbage instance")
endif()
if(NOT eval_err MATCHES "parse error")
  message(FATAL_ERROR "lrb_eval gave no parse diagnostic: ${eval_err}")
endif()

# A negative job count used to wrap to a huge unsigned value; the parser
# must reject it on the 'jobs' line.
file(WRITE ${WORK_DIR}/negjobs.lrb "lrb-instance 1\nprocs 2\njobs -1\n")
execute_process(
  COMMAND ${LRB_SOLVE} ${WORK_DIR}/negjobs.lrb --algo greedy --k 1
  RESULT_VARIABLE rc ERROR_VARIABLE solve_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_solve accepted a negative job count")
endif()
if(NOT solve_err MATCHES "parse error")
  message(FATAL_ERROR "lrb_solve gave no parse diagnostic: ${solve_err}")
endif()

# A lying header (far more jobs than data) used to attempt the full upfront
# allocation; it must instead fail cleanly on the first missing job line.
file(WRITE ${WORK_DIR}/liar.lrb
  "lrb-instance 1\nprocs 2\njobs 99999999999\n3 1 0\n")
execute_process(
  COMMAND ${LRB_SOLVE} ${WORK_DIR}/liar.lrb --algo greedy --k 1
  RESULT_VARIABLE rc ERROR_VARIABLE solve_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lrb_solve accepted a lying jobs header")
endif()
if(NOT solve_err MATCHES "bad job line")
  message(FATAL_ERROR "lrb_solve gave no job-line diagnostic: ${solve_err}")
endif()

# Runs `tool --bad ARGN` and requires exit 2 with "--flag must be" on
# stderr.
function(expect_bad_flag tool name bad)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  execute_process(
    COMMAND ${tool} --${bad} ${ARGN}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--${flag} must be")
    message(FATAL_ERROR
      "${name} --${bad}: want exit 2 naming --${flag}, got ${rc}: ${err}")
  endif()
endfunction()
# Count flags are range-checked on the signed value, before the unsigned
# cast: "lrb_stream --deltas -1" used to wrap to ~2^64 and abort in the
# allocator, and "lrb_load --connections -1" passed its ">= 1" check and
# started one thread per connection. Each bad value must exit 2 and name
# its flag. The lrb_stream cases carry --record and the lrb_load cases a
# missing --trace file, so a build that accepts the flag fails the check
# without starting a server or a connection.
foreach(bad sessions=-1 sessions=5000 deltas=-1 frame=-1 frame=0
        reconnect-every=-1 every=-1 every=4294967296 depart-frac=7
        depart-frac=-0.5 depart-frac=nan reactors=-1 engine-workers=0
        workers=-1 cache-mb=-1 seed=-1)
  expect_bad_flag(${LRB_STREAM} lrb_stream ${bad}
                  --record ${WORK_DIR}/rejected.lrbd)
endforeach()
foreach(bad connections=-1 connections=0 connections=5000 requests=-1
        deadline-ms=-1 repeat=-1 pipeline=0 frame=-1 reconnect-every=-1
        rate=-1 seed=-1)
  expect_bad_flag(${LRB_LOAD} lrb_load ${bad}
                  --unix ${WORK_DIR}/no_server.sock
                  --trace ${WORK_DIR}/no_such_log.lrbd)
endforeach()
# The same for lrb_serve and lrb_batch ("lrb_serve --workers -1" used to
# ask for ~2^64 threads, "lrb_batch --reps -1" to loop ~2^64 times). The
# lrb_serve cases name no listener and the lrb_batch cases a missing
# --corpus, so even a build that accepts the flag exits before it starts
# a server or a pool.
foreach(bad workers=-1 workers=5000 reactors=0 reactors=-1 engine-workers=0
        max-batch=0 max-queue=-1 max-conns=0 tick-delay-ms=-1 tcp=-5
        tcp=70000 cache-mb=-1 cache-mb=17592186044416)
  expect_bad_flag(${LRB_SERVE} lrb_serve ${bad})
endforeach()
foreach(bad reps=-1 reps=0 generate=-1 generate=0 seed=-1 workers=1,-1
        workers=5000 workers=x ptas-budget=-1)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  execute_process(
    COMMAND ${LRB_BATCH} --${bad} --corpus ${WORK_DIR}/no_such_corpus.lrb
    RESULT_VARIABLE rc ERROR_VARIABLE batch_err OUTPUT_QUIET)
  if(NOT rc EQUAL 2 OR NOT batch_err MATCHES "--${flag}")
    message(FATAL_ERROR
      "lrb_batch --${bad}: want exit 2 naming --${flag}, got ${rc}: "
      "${batch_err}")
  endif()
endforeach()
# Every other tool reads its integer flags through Flags::get_int_in too
# (there is no unchecked getter): "lrb_sweep --threads -1" used to ask for
# a ~2^64-thread pool, "lrb_chaos --clients 5000" for 5000 client threads.
# Each case carries a guard that makes a build which accepted the flag
# exit 1 before it starts a pool, a server or a file: a missing input
# file for lrb_solve and lrb_sweep, an unknown --algo / --dist / --policy
# for the others (each tool checks its numeric flags first).
foreach(bad campaigns=0 campaigns=2000000 clients=0 clients=5000 requests=0
        restart-every=-1 campaign-index=-1 reactors=-1 reactors=5000
        tick-workers=0 seed=-1)
  expect_bad_flag(${LRB_CHAOS} lrb_chaos ${bad} --algo no-such-backend)
endforeach()
foreach(bad seed=-1 iters=-1 max-jobs=0 max-jobs=100001 max-procs=0
        max-procs=70000 expect-max-jobs=-1 jobs=0 jobs=257)
  expect_bad_flag(${LRB_FUZZ} lrb_fuzz ${bad} --algo no-such-backend
                  --corpus ${WORK_DIR}/rejected_corpus)
endforeach()
foreach(bad jobs=0 jobs=100000001 procs=0 procs=1000001 min-size=-1
        max-size=4294967297 min-cost=-1 max-cost=-1 p=-1 q=-1 seed=-1
        tight-greedy=1 tight-greedy=10001)
  expect_bad_flag(${LRB_GEN} lrb_gen ${bad} --dist no-such-dist)
endforeach()
foreach(bad k=-1 budget=-1)
  expect_bad_flag(${LRB_SOLVE} lrb_solve ${bad}
                  ${WORK_DIR}/no_such_instance.lrb)
endforeach()
foreach(bad sites=0 sites=-1 servers=0 servers=100001 steps=0 every=-1 k=-1
        migrations-per-step=-1 seed=-1 byte-budget=-1)
  expect_bad_flag(${LRB_SIM} lrb_simulate ${bad} --policy no-such-policy)
endforeach()
foreach(bad threads=-1 threads=5000)
  expect_bad_flag(${LRB_SWEEP} lrb_sweep ${bad}
                  ${WORK_DIR}/no_such_instance.lrb)
endforeach()
