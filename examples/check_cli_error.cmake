# Runs `${CLI} ${ARGS}` (ARGS space-separated) and fails unless the command
# exits with status 1 and writes one line to stderr matching ${EXPECT}.
#
#   cmake -DCLI=path/to/fjs_cli "-DARGS=--workload nope" \
#         "-DEXPECT=unknown workload" -P check_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "fjs_cli ${ARGS}: exit status '${code}', want 1\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines line_count)
if(NOT line_count EQUAL 1 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "fjs_cli ${ARGS}: want one stderr line matching '${EXPECT}', got:\n${err}")
endif()
