#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_percentile(std::size_t samples) {
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

std::string percentile_label(double p) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", p);
  return buf;
}

namespace {
thread_local std::int64_t t_current = -1;
}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::int64_t parent)
    : log_(log.enabled() ? &log : nullptr) {
  if (log_ == nullptr) return;
  prev_ = t_current;
  std::lock_guard<std::mutex> lock(log_->mu_);
  index_ = log_->spans_.size();
  id_ = static_cast<std::int64_t>(index_);
  log_->spans_.push_back(Span{name, id_, parent == -2 ? prev_ : parent,
                              log_->rep_, log_->now_ns(), 0});
  t_current = id_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const std::int64_t end = log_->now_ns();
  {
    std::lock_guard<std::mutex> lock(log_->mu_);
    log_->spans_[index_].end_ns = end;
  }
  t_current = prev_;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds_by_layer()
    const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals, clipped to the parent: children
    // on pool workers may overlap one another.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(all[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(all[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) *
                       1e-9;
  }
  return {by_layer.begin(), by_layer.end()};
}

bool SpanLog::write(const std::string& path, const std::string& workload)
    const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"rep\":%d,\"id\":%lld,\"parent\":%lld,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 workload.c_str(), s.rep, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const auto& [layer, self_s] : self_seconds_by_layer()) {
    std::fprintf(f, "{\"workload\":\"%s\",\"layer\":\"%s\",\"self_s\":%.9f}\n",
                 workload.c_str(), layer.c_str(), self_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
