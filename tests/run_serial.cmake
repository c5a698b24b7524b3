# Included by ctest after the discovered tests are defined. The two
# wall-clock thread-scaling tests time a parallel run against a serial one,
# so they run alone: `ctest -j` never starts them beside other tests.
set_tests_properties(ThreadScaling.SimRoundsWallClockBeatsSerial
                     ThreadScaling.RouteBatchWallClockBeatsSerial
                     PROPERTIES RUN_SERIAL TRUE)
