# Run a command that must fail: pass only when it exits non-zero AND its
# combined stdout/stderr matches EXPECT. (A plain ctest PASS_REGULAR_EXPRESSION
# would ignore the exit code.)
#
#   cmake -DCMD=<exe> "-DARGS=<space-separated args>" -DEXPECT=<regex>
#         -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${rc}, but output does not match '${EXPECT}':\n${out}")
endif()
