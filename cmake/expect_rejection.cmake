# Runs PROGRAM with ARGS (a ;-list) and passes only if it exits with status
# 2 and its stderr matches the regular expression EXPECT: the program must
# reject the input with a message, not abort or carry on.
#
#   cmake -DPROGRAM=<program> -DARGS=<a;b> -DEXPECT=<regex>
#         -P cmake/expect_rejection.cmake
if(NOT PROGRAM OR NOT EXPECT)
  message(FATAL_ERROR "pass -DPROGRAM=<program> and -DEXPECT=<regex>")
endif()

execute_process(COMMAND "${PROGRAM}" ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
message(STATUS "rejected as expected: ${err}")
