# One binary per paper table/figure plus the ablations and the
# controller storm. They report simulated results; host
# performance is measured by perfbench/.
set(M3V_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

add_executable(fig06_micro ${M3V_BENCH_DIR}/fig06_micro.cc)
target_link_libraries(fig06_micro PRIVATE m3v_os m3v_m3x m3v_linuxref)
target_include_directories(fig06_micro PRIVATE ${M3V_BENCH_DIR})
set_target_properties(fig06_micro PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(fig07_fs ${M3V_BENCH_DIR}/fig07_fs.cc)
target_link_libraries(fig07_fs PRIVATE m3v_workloads)
target_include_directories(fig07_fs PRIVATE ${M3V_BENCH_DIR})
set_target_properties(fig07_fs PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(fig08_udp ${M3V_BENCH_DIR}/fig08_udp.cc)
target_link_libraries(fig08_udp PRIVATE m3v_workloads)
target_include_directories(fig08_udp PRIVATE ${M3V_BENCH_DIR})
set_target_properties(fig08_udp PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(fig09_scale ${M3V_BENCH_DIR}/fig09_scale.cc)
target_link_libraries(fig09_scale PRIVATE m3v_workloads m3v_m3x)
target_include_directories(fig09_scale PRIVATE ${M3V_BENCH_DIR})
set_target_properties(fig09_scale PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(fig10_cloud ${M3V_BENCH_DIR}/fig10_cloud.cc)
target_link_libraries(fig10_cloud PRIVATE m3v_workloads)
target_include_directories(fig10_cloud PRIVATE ${M3V_BENCH_DIR})
set_target_properties(fig10_cloud PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(voice_assistant ${M3V_BENCH_DIR}/voice_assistant.cc)
target_link_libraries(voice_assistant PRIVATE m3v_workloads)
target_include_directories(voice_assistant PRIVATE ${M3V_BENCH_DIR})
set_target_properties(voice_assistant PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(table1_area ${M3V_BENCH_DIR}/table1_area.cc)
target_link_libraries(table1_area PRIVATE m3v_area m3v_sim)
target_include_directories(table1_area PRIVATE ${M3V_BENCH_DIR})
set_target_properties(table1_area PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(ablations ${M3V_BENCH_DIR}/ablations.cc)
target_link_libraries(ablations PRIVATE m3v_workloads m3v_m3x)
target_include_directories(ablations PRIVATE ${M3V_BENCH_DIR})
set_target_properties(ablations PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

add_executable(ctrl_storm ${M3V_BENCH_DIR}/ctrl_storm.cc)
target_link_libraries(ctrl_storm PRIVATE m3v_os m3v_workloads)
target_include_directories(ctrl_storm PRIVATE ${M3V_BENCH_DIR})
set_target_properties(ctrl_storm PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
