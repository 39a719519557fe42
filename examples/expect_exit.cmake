# Runs CMD (a ;-list) and fails unless it exits with code EXPECT and
# prints the usage message.  Used by the paladin_sort flag-error tests:
#   cmake -DEXPECT=2 "-DCMD=paladin_sort;--perf;0,1" -P expect_exit.cmake
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT}\n${out}\n${err}")
endif()
if(NOT out MATCHES "paladin_sort --input FILE")
  message(FATAL_ERROR "no usage message\n${out}\n${err}")
endif()
