# Dependency rule: src/matching/ is a standalone library (used by its own
# tests, micro_match_churn and match_scaling).  No other file under src/
# may include a matching/ header, so the per-broker matcher behind
# RoutingFabric stays the one counting index (message/index.h).
#
#   cmake -DSOURCE_DIR=<repo root> -P cmake/check_matching_includes.cmake
#
# Registered with ctest as `matching_dependency_rule`.
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

file(GLOB_RECURSE sources "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cpp")
set(violations "")
foreach(path IN LISTS sources)
  file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
  if(rel MATCHES "^src/matching/")
    continue()
  endif()
  file(STRINGS "${path}" includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]matching/")
  foreach(line IN LISTS includes)
    string(STRIP "${line}" line)
    list(APPEND violations "${rel}: ${line}")
  endforeach()
endforeach()

list(LENGTH sources count)
if(count EQUAL 0)
  message(FATAL_ERROR "no sources found under ${SOURCE_DIR}/src")
endif()
if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "files outside src/matching/ include matching/ headers:\n  ${report}")
endif()
message(STATUS "matching dependency rule holds over ${count} files")
