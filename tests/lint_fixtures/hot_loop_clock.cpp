// Deliberately-bad fixture for the hot-loop-clock rule: direct clock reads
// inside the hot paths (src/des, src/queueing, src/lp), where timing must
// only enter through obs/trace's compiled-out STOSCHED_TRACE_* macros.
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
