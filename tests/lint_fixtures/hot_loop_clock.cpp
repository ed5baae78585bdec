// Deliberately-bad fixture for the hot-loop-clock rule: direct clock reads
// inside the hot paths (src/des, src/queueing, src/lp), which read no clock
// at all — timing lives in bench/ and perfbench/.
#include <chrono>

#include <ctime>
#include <sys/time.h>

double simulate_timed_loop() {
  const auto t0 = std::chrono::steady_clock::now();
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  timeval tv;
  gettimeofday(&tv, nullptr);
  const auto t1 = std::chrono::high_resolution_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}
