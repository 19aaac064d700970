#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_map>

namespace perfbench {

void Samples::add(double value) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(value);
    return;
  }
  // Algorithm R: keep the new value with probability kCapacity / seen_.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::size_t slot = rng_ % seen_;
  if (slot < kCapacity) values_[slot] = value;
}

void Samples::append(const Samples& other, double factor) {
  for (const double value : other.values_) add(value * factor);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

std::size_t Samples::beyond(double q) const {
  const auto n = seen_;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

bool same_records(const std::vector<rush::JobRecord>& a,
                  const std::vector<rush::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rush::JobRecord& x = a[i];
    const rush::JobRecord& y = b[i];
    if (x.id != y.id || x.name != y.name || x.sensitivity != y.sensitivity ||
        x.tasks != y.tasks || !same_bits(x.arrival, y.arrival) ||
        !same_bits(x.budget, y.budget) || !same_bits(x.priority, y.priority) ||
        !same_bits(x.completion, y.completion) || !same_bits(x.utility, y.utility) ||
        !same_bits(x.best_possible_utility, y.best_possible_utility)) {
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
volatile double probe_sink = 0.0;
}  // namespace

double HostSpeed::probe() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  {
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (int i = 0; i < 20000; ++i) ++counts[next() % 100000];
    std::map<std::uint64_t, double> ordered;
    for (int i = 0; i < 5000; ++i) ordered.emplace(next(), 1.0);
    probe_sink = static_cast<double>(counts.size() + ordered.size());  // keeps the work
  }
  last_ = Clock::now();
  const double us = micros_between(start, last_);
  kernel_us_.push_back(us);
  return us * 1e-6;
}

double HostSpeed::maybe_probe() {
  if (!kernel_us_.empty() && micros_between(last_, Clock::now()) < kProbeIntervalUs) return 0.0;
  return probe();
}

std::size_t HostSpeed::open_span() {
  probe();
  return kernel_us_.size() - 1;
}

double HostSpeed::close_span(std::size_t start) {
  probe();
  const double total =
      std::accumulate(kernel_us_.begin() + static_cast<long>(start), kernel_us_.end(), 0.0);
  return kReferenceKernelUs * static_cast<double>(kernel_us_.size() - start) / total;
}

double HostSpeed::kernel_us() const {
  if (kernel_us_.empty()) return 0.0;
  return std::accumulate(kernel_us_.begin(), kernel_us_.end(), 0.0) /
         static_cast<double>(kernel_us_.size());
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  for (auto& [name, passed] : checks_) {
    if (name == what) {
      passed = passed && ok;
      return;
    }
  }
  checks_.emplace_back(what, ok);
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples, bool detail_only) {
  if (!std::isfinite(value)) check(false, name + " is finite");
  metrics_.push_back(Metric{name, value, unit, samples, detail_only});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

std::string Report::detail_json(const std::string& workload, bool trace) const {
  std::string out = "{\"workload\": " + quoted(workload) +
                    ", \"trace\": " + (trace ? "true" : "false") + ", \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(checks_[i].first) + ": " +
           (checks_[i].second ? "true" : "false");
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(info_[i].first) + ": " + quoted(info_[i].second);
  }
  return out + "}}";
}

std::string Report::result_json() const {
  std::string out = std::string("{\"correct\": ") + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.detail_only) continue;
    out += (first ? "" : ", ") + quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
