# Pins the session trace generator byte for byte: recording the mixed
# session preset must reproduce the committed corpus file exactly, so
# lrb_stream, lrb_chaos and the corpus all see the same deltas.
execute_process(
  COMMAND ${LRB_STREAM} --deltas 60 --seed 3 --every 16
          --record ${WORK_DIR}/session_mixed.lrbd
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lrb_stream --record failed: ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/session_mixed.lrbd ${EXPECTED}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recorded delta log differs from ${EXPECTED}")
endif()
