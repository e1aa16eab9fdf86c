# Runs qpp_tool with bad arguments and checks each is refused with exit
# code 2, every expected string on stderr (a case lists them after "=>"),
# and the usage text, and that a refused chaos run saves no plan.
#   cmake -DQPP_TOOL=path/to/qpp_tool -P check_bad_arguments.cmake
set(refused "${CMAKE_CURRENT_BINARY_DIR}/refused.plan")
# A fabric-soak plan sized for 10000 requests, the soak's floor (kill after
# 500 picks), which a 20000-request replay (kill after 1000) must refuse.
set(soak_plan "${CMAKE_CURRENT_BINARY_DIR}/soak-10000.plan")
file(REMOVE "${soak_plan}")
execute_process(COMMAND ${QPP_TOOL} chaos --fabric-soak --requests 10000
                        --save-plan ${soak_plan}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${soak_plan}")
  message(FATAL_ERROR "qpp_tool chaos --fabric-soak: exit ${rc}, plan "
                      "${soak_plan}\n${err}")
endif()
set(cases
  "chaos|--fabric-soak|--requests|20000|--plan|${soak_plan}=>after 500 picks=>kills after 1000"
  "chaos|--fabric-soak|--requests|1000|--save-plan|${refused}=>--requests >= 10000=>got 1000"
  "pools|--candidates|300|--seed|3|--candidatez|5=>--candidatez"
  "chaos|--seed|42|--soak|1=>'1'"
  "chaos|--seed|7|--save-plan|${refused}=>--save-plan"
  "chaos|--scenario|no-such-run|--save-plan|${refused}=>--save-plan"
  "plan|--sql|SELECT 1|extra=>'extra'"
  "obs|--flight-dump|f.json|--sql|SELECT 1=>--sql"
  "serve|--statsz|s.txt=>--statsz"
  "train|--out=>--out"
  "chaos|--requests|abc=>--requests"
  "chaos|--requests|-1=>--requests"
  "pools|--seed|99999999999999999999=>--seed")
file(REMOVE "${refused}")
foreach(case IN LISTS cases)
  string(REPLACE "=>" ";" parts "${case}")
  list(POP_FRONT parts argv)
  string(REPLACE "|" ";" argv "${argv}")
  execute_process(COMMAND ${QPP_TOOL} ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "qpp_tool ${argv}: exit ${rc}, want 2\n${out}${err}")
  endif()
  foreach(want IN LISTS parts)
    string(FIND "${err}" "${want}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "qpp_tool ${argv}: stderr does not name ${want}\n${err}")
    endif()
  endforeach()
  string(FIND "${err}" "usage:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "qpp_tool ${argv}: no usage text\n${err}")
  endif()
endforeach()
file(REMOVE "${soak_plan}")
if(EXISTS "${refused}")
  message(FATAL_ERROR "a refused chaos run saved ${refused}")
endif()
