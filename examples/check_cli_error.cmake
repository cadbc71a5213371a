# Runs `${CLI} ${ARGS}` (ARGS space-separated) and fails unless the command
# exits with status ${CODE} (default 1) and writes one line to stderr
# matching ${EXPECT}.
#
#   cmake -DCLI=path/to/fjs_cli "-DARGS=--workload nope" \
#         "-DEXPECT=unknown workload" [-DCODE=2] -P check_cli_error.cmake
if(NOT DEFINED CODE)
  set(CODE 1)
endif()
get_filename_component(tool "${CLI}" NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL CODE)
  message(FATAL_ERROR "${tool} ${ARGS}: exit status '${code}', want ${CODE}\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines line_count)
if(NOT line_count EQUAL 1 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${tool} ${ARGS}: want one stderr line matching '${EXPECT}', got:\n${err}")
endif()
