#include <algorithm>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_->records_.size());
  const std::int32_t parent =
      tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->records_.push_back(
      {name, tracer_->now_ns(), -1, parent, tracer_->op_});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_ns =
      tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::map<std::string, Tracer::NameTotals> Tracer::op_totals() const {
  std::vector<double> child_ns(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.op < 0) continue;
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    NameTotals& t = out[r.name];
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    ++t.count;
  }
  return out;
}

std::string Tracer::to_json() const {
  std::string out = "{\"schema\": \"ibpower-perfbench-spans:v1\", \"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"op\": %lld}",
                  i == 0 ? "" : ",", i, r.name,
                  static_cast<long long>(r.start_ns),
                  static_cast<long long>(r.end_ns), r.parent,
                  static_cast<long long>(r.op));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
