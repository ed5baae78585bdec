#include "obs/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>

namespace stosched::obs {
namespace {

// Leaked on purpose (as the obs/trace.cpp registry): instruments must
// outlive every static destructor that might still bump a counter, and
// atexit-ordered teardown across TUs is not worth reasoning about for a
// telemetry registry. Instruments are keyed by name.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked, see above
  return *r;
}

template <class T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& m,
                  const std::string& name) {
  auto it = m.find(name);
  if (it == m.end())
    it = m.emplace(name, std::make_unique<T>(name)).first;
  return *it->second;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_or_create(r.counters, name);
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_or_create(r.histograms, name);
}

std::uint64_t counter_value(const std::string& name) noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second->value();
}

HistogramSnapshot histogram_snapshot(const std::string& name) noexcept {
  Histogram* h = nullptr;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.histograms.find(name);
    if (it != r.histograms.end()) h = it->second.get();
  }
  return h == nullptr ? HistogramSnapshot{} : h->snapshot();
}

Histogram& wait_time_histogram() {
  static Histogram& h = histogram("wait_time");
  return h;
}

Histogram& sojourn_time_histogram() {
  static Histogram& h = histogram("sojourn_time");
  return h;
}

}  // namespace stosched::obs
