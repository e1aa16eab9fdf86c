# Runs qpp_tool with bad arguments and checks each is refused with exit
# code 2, the offending name on stderr, and the usage text, and that a
# refused chaos run saves no plan.
#   cmake -DQPP_TOOL=path/to/qpp_tool -P check_bad_arguments.cmake
set(refused "${CMAKE_CURRENT_BINARY_DIR}/refused.plan")
set(cases
  "pools|--candidates|300|--seed|3|--candidatez|5=>--candidatez"
  "chaos|--seed|42|--soak|1=>'1'"
  "chaos|--seed|7|--save-plan|${refused}=>--save-plan"
  "chaos|--scenario|no-such-run|--save-plan|${refused}=>--save-plan"
  "plan|--sql|SELECT 1|extra=>'extra'"
  "obs|--flight-dump|f.json|--sql|SELECT 1=>--sql"
  "train|--out=>--out"
  "chaos|--requests|abc=>--requests"
  "chaos|--requests|-1=>--requests"
  "pools|--seed|99999999999999999999=>--seed")
file(REMOVE "${refused}")
foreach(case IN LISTS cases)
  string(REPLACE "=>" ";" parts "${case}")
  list(GET parts 0 argv)
  list(GET parts 1 want)
  string(REPLACE "|" ";" argv "${argv}")
  execute_process(COMMAND ${QPP_TOOL} ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "qpp_tool ${argv}: exit ${rc}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "qpp_tool ${argv}: stderr does not name ${want}\n${err}")
  endif()
  string(FIND "${err}" "usage:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "qpp_tool ${argv}: no usage text\n${err}")
  endif()
endforeach()
if(EXISTS "${refused}")
  message(FATAL_ERROR "a refused chaos run saved ${refused}")
endif()
