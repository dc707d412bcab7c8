#include "trace.h"

#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer::Buffer& Tracer::LocalBuffer() {
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread_index = buffers_.size();
    buffer->spans.reserve(1 << 14);
    owner = this;
  }
  return *buffer;
}

Tracer::Span::Span(Tracer& tracer, const char* name, uint64_t request_id) {
  if (!tracer.recording()) return;
  tracer_ = &tracer;
  Buffer& buffer = tracer.LocalBuffer();
  SpanRecord span;
  span.name = name;
  span.id = (buffer.thread_index << 40) | buffer.next_seq++;
  span.request_id = request_id;
  if (!buffer.open.empty()) {
    const SpanRecord& parent = buffer.spans[buffer.open.back()];
    span.parent = parent.id;
    if (span.request_id == 0) span.request_id = parent.request_id;
  }
  index_ = buffer.spans.size();
  buffer.open.push_back(index_);
  span.start_ns = tracer.NowNs();
  buffer.spans.push_back(span);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Buffer& buffer = tracer_->LocalBuffer();
  buffer.spans[index_].end_ns = tracer_->NowNs();
  buffer.open.pop_back();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Child coverage per parent id. Children never outlive their parent on
  // one thread, so the sum of child durations is the covered part.
  std::unordered_map<uint64_t, int64_t> covered;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (s.parent != 0) covered[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      SpanTotals& t = totals[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      auto it = covered.find(s.id);
      const int64_t self = dur - (it == covered.end() ? 0 : it->second);
      ++t.count;
      t.total_us += static_cast<double>(dur) / 1e3;
      t.self_us += static_cast<double>(self) / 1e3;
    }
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
          << "}\n";
    }
  }
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
