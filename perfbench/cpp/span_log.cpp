#include "span_log.hpp"

#include <fstream>

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::Scope SpanLog::open(const char* name, std::int64_t op) {
  if (!enabled_) return Scope(nullptr, -1);
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), -1, current_, op, 1});
  current_ = index;
  return Scope(this, index);
}

void SpanLog::Scope::set_calls(std::uint64_t calls) {
  if (log_ != nullptr) {
    log_->spans_[static_cast<std::size_t>(index_)].calls = calls;
  }
}

void SpanLog::Scope::close() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = log_->now_ns();
  log_->current_ = span.parent;
  log_ = nullptr;
}

std::vector<double> SpanLog::per_call_seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name && s.calls > 0) {
      out.push_back(s.seconds() / static_cast<double>(s.calls));
    }
  }
  return out;
}

double SpanLog::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) total += s.seconds();
  }
  return total;
}

std::uint64_t SpanLog::total_calls(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) total += s.calls;
  }
  return total;
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    self[i] += spans_[i].seconds();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
    }
  }
  return self;
}

double SpanLog::unattributed_fraction(const std::string& root) const {
  const std::vector<double> self = self_seconds();
  double root_total = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || spans_[i].end_ns < 0) continue;
    if (root != spans_[i].name) continue;
    root_total += spans_[i].seconds();
    root_self += self[i];
  }
  return root_total > 0.0 ? root_self / root_total : 0.0;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<double> self = self_seconds();
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << ", \"calls\": " << s.calls
        << ", \"self_ns\": " << static_cast<std::int64_t>(self[i] * 1e9)
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
