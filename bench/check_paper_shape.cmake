# ctest wrapper for the paper-shape gates: runs one figure bench (quick
# mode) and passes only when it exits 0, prints a HOLDS verdict and prints
# no VIOLATED one.
#
# Inputs: -DBENCH=

execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
if(out MATCHES "VIOLATED")
  message(FATAL_ERROR "${BENCH}: a paper shape is VIOLATED")
endif()
if(NOT out MATCHES "HOLDS")
  message(FATAL_ERROR "${BENCH} printed no HOLDS verdict")
endif()
