#include <cstdio>
#include <set>
#include <string>

#include "common.h"

namespace perfbench {

int32_t Tracer::Open(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const uint64_t request =
      parent < 0 ? next_request_++ : spans_[static_cast<size_t>(parent)].request;
  spans_.push_back({name, NowNanos(), 0, parent, request});
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

const char* Tracer::Intern(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

double Tracer::MeanMicros(const std::string& name) const {
  double sum = 0;
  uint64_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      sum += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

std::map<std::string, Tracer::ClassBreakdown> Tracer::Breakdown() const {
  // Children of one parent are sequential on one thread, so a span's self
  // time is its duration minus the sum of its direct children.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, ClassBreakdown> out;
  std::map<std::string, std::vector<double>> root_us, children_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) continue;
    ClassBreakdown& b = out[s.name];
    ++b.roots;
    root_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    children_us[s.name].push_back(static_cast<double>(child_ns[i]) / 1e3);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) continue;
    // Attribute to the root's class.
    size_t root = i;
    while (spans_[root].parent >= 0) root = static_cast<size_t>(spans_[root].parent);
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3;
    out[spans_[root].name].self_us[s.name] += self;
  }
  for (auto& [cls, b] : out) {
    for (auto& [layer, us] : b.self_us) us /= static_cast<double>(b.roots);
    b.root_median_us = Quantile(root_us[cls], 0.5);
    b.children_median_us = Quantile(children_us[cls], 0.5);
  }
  return out;
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<unsigned long long>(s.request));
    out += buf;
    if (i + 1 < spans_.size()) out += "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
