#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.h"

namespace perfbench {

const uint64_t kProcessStartNanos = NowNanos();

void Phase(const std::string& what) {
  std::fprintf(stderr, "[%7.2fs] %s\n",
               static_cast<double>(NowNanos() - kProcessStartNanos) / 1e9,
               what.c_str());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Median(const std::string& cls) const {
  auto it = by_class_.find(cls);
  return it == by_class_.end() ? 0 : Quantile(it->second, 0.5);
}

double Samples::Mean(const std::string& cls) const {
  auto it = by_class_.find(cls);
  if (it == by_class_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Samples::Lowest(const std::string& cls) const {
  auto it = by_class_.find(cls);
  return it == by_class_.end() || it->second.empty()
             ? 0
             : *std::min_element(it->second.begin(), it->second.end());
}

size_t Samples::Count(const std::string& cls) const {
  auto it = by_class_.find(cls);
  return it == by_class_.end() ? 0 : it->second.size();
}

void Samples::Merge(const Samples& other) {
  for (const auto& [cls, v] : other.by_class_) {
    std::vector<double>& into = by_class_[cls];
    into.insert(into.end(), v.begin(), v.end());
  }
}

void Samples::AddMedians(const Samples& round) {
  for (const auto& [cls, v] : round.by_class_) Add(cls, Quantile(v, 0.5));
}

void Samples::PrintReference(const std::string& prefix) const {
  for (const auto& [cls, v] : by_class_) {
    std::printf("%s %-22s n=%-7zu p50=%.2fus", prefix.c_str(), cls.c_str(),
                v.size(), Quantile(v, 0.5));
    if (v.size() >= 40) {
      // The highest percentile with at least ten samples beyond it.
      double q = 0.9;
      const char* label = "p90";
      if (v.size() >= 1000) {
        q = 0.99;
        label = "p99";
      }
      if (v.size() >= 10000) {
        q = 0.999;
        label = "p99.9";
      }
      std::printf(" %s=%.2fus", label, Quantile(v, q));
    }
    std::printf("\n");
  }
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void CounterTotals::Add(const std::string& cls,
                        const classic::obs::CounterArray& d) {
  classic::obs::CounterArray& s = sums_[cls];
  for (size_t i = 0; i < d.size(); ++i) s[i] += d[i];
  ++ops_[cls];
}

uint64_t CounterTotals::Get(const std::string& cls,
                            classic::obs::Counter c) const {
  auto it = sums_.find(cls);
  return it == sums_.end() ? 0 : it->second[static_cast<size_t>(c)];
}

uint64_t CounterTotals::Ops(const std::string& cls) const {
  auto it = ops_.find(cls);
  return it == ops_.end() ? 0 : it->second;
}

std::vector<std::string> CounterTotals::Classes() const {
  std::vector<std::string> out;
  for (const auto& [cls, n] : ops_) out.push_back(cls);
  return out;
}

}  // namespace perfbench
