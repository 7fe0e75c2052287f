# Observability shape check for fig06_micro (ctest -P script).
#
# Runs the figure with --metrics-out and --trace-out, then checks:
#   - the metrics dump carries instruments of every major subsystem
#     (dtu, vdtu, tilemux, noc, m3x) with plausible values: the remote
#     RPC run crosses the NoC, so deliveries are nonzero; the local run
#     makes TMCalls; the M3x reference run context-switches through its
#     kernel and takes its slow path;
#   - the trace is valid Chrome trace-event JSON with at least one
#     event, balanced B/E spans and named process tracks.
# Inputs:
#   BIN     - fig06_micro
#   METRICS - where to write the metrics dump
#   TRACE   - where to write the trace

cmake_minimum_required(VERSION 3.19) # string(JSON)

execute_process(
    COMMAND ${BIN} --metrics-out=${METRICS} --trace-out=${TRACE}
    RESULT_VARIABLE run_rv
    OUTPUT_QUIET)
if(NOT run_rv EQUAL 0)
    message(FATAL_ERROR "observability: ${BIN} exited with ${run_rv}")
endif()

# json(OUT MODE JSON PATH...): string(JSON) that fails the test with
# the offending path instead of returning <path>-NOTFOUND.
function(json out mode doc)
    string(JSON value ERROR_VARIABLE err ${mode} "${doc}" ${ARGN})
    if(err)
        message(FATAL_ERROR "observability: ${mode} ${ARGN}: ${err}")
    endif()
    set(${out} "${value}" PARENT_SCOPE)
endfunction()

file(READ ${METRICS} metrics)

foreach(path "m3v_remote;ctrl.dtu.msgs_sent"
             "m3v_remote;tile0.vdtu.core_reqs"
             "m3v_remote;tile0.tilemux.switches")
    json(type TYPE "${metrics}" ${path})
    if(type STREQUAL "NULL")
        message(FATAL_ERROR "observability: metric ${path} is null")
    endif()
endforeach()

foreach(path "m3v_remote;noc.delivered"
             "m3v_local;tile0.tilemux.tmcalls"
             "m3x;m3x.kernel.switches"
             "m3x;m3x.kernel.slowpaths")
    json(value GET "${metrics}" ${path})
    if(NOT value GREATER 0)
        message(FATAL_ERROR
            "observability: metric ${path} is ${value}, expected > 0")
    endif()
endforeach()

json(remote GET "${metrics}" m3v_remote)
json(n LENGTH "${remote}")
set(vdtu_keys 0)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
    json(key MEMBER "${remote}" ${i})
    if(key MATCHES "^tile0\\.vdtu")
        math(EXPR vdtu_keys "${vdtu_keys} + 1")
    endif()
endforeach()
if(vdtu_keys EQUAL 0)
    message(FATAL_ERROR "observability: no tile0.vdtu.* metric in m3v_remote")
endif()

# The trace: parsing its length validates the whole document. The
# phases are then counted in the text; the count of all "ph" keys must
# equal the number of events, so no event escapes the count.
file(READ ${TRACE} trace)
json(events LENGTH "${trace}" traceEvents)
if(events EQUAL 0)
    message(FATAL_ERROR "observability: trace has no events")
endif()

function(count_matches out regex)
    string(REGEX MATCHALL "${regex}" found "${trace}")
    list(LENGTH found n)
    set(${out} ${n} PARENT_SCOPE)
endfunction()

count_matches(phases "\"ph\" *: *\"")
if(NOT phases EQUAL events)
    message(FATAL_ERROR
        "observability: ${phases} \"ph\" keys for ${events} trace events")
endif()
count_matches(begins "\"ph\" *: *\"B\"")
count_matches(ends "\"ph\" *: *\"E\"")
if(NOT begins EQUAL ends)
    message(FATAL_ERROR
        "observability: ${begins} B spans but ${ends} E spans")
endif()
count_matches(process_names
    "\"ph\" *: *\"M\"[^{}]*\"name\" *: *\"process_name\"")
if(process_names EQUAL 0)
    message(FATAL_ERROR "observability: no process_name metadata")
endif()

message(STATUS "observability: ${events} trace events, ${begins} spans")
