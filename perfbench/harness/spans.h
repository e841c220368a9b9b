// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls: a name, host start and end
// (steady_clock nanoseconds since the recorder was made), the index of the
// span that encloses it, and a request id (the invocation id for invoke
// spans, 0 otherwise). Spans stay in memory during the run; WriteTsv writes
// them out once, after the run.
#ifndef PALETTE_PERFBENCH_HARNESS_SPANS_H_
#define PALETTE_PERFBENCH_HARNESS_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace palette::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request_id = 0;
    std::int32_t parent = kNoParent;
    std::uint16_t name = 0;
    std::int64_t duration_ns() const { return end_ns - start_ns; }
  };

  SpanRecorder() : origin_ns_(NowNs()) {}

  // Interns a span name; call once per name, outside timed regions.
  std::uint16_t Name(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<std::uint16_t>(i);
      }
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  // Opens a span now; Close(index) sets its end.
  std::int32_t Open(std::uint16_t name, std::int32_t parent) {
    spans_.push_back(Span{NowNs() - origin_ns_, 0, 0, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t index) {
    spans_[index].end_ns = NowNs() - origin_ns_;
  }

  // Records a finished span from absolute NowNs() readings.
  std::int32_t Add(std::uint16_t name, std::int32_t parent,
                   std::int64_t start_abs_ns, std::int64_t end_abs_ns,
                   std::uint64_t request_id) {
    spans_.push_back(Span{start_abs_ns - origin_ns_, end_abs_ns - origin_ns_,
                          request_id, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void Reserve(std::size_t n) { spans_.reserve(n); }
  const Span& at(std::int32_t index) const { return spans_[index]; }

  // Durations (ns) of every span named `name`, in recording order.
  std::vector<double> DurationsOf(std::uint16_t name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.duration_ns()));
      }
    }
    return out;
  }

  // Self time: the span's duration minus the time its direct children
  // cover (children never overlap each other on the one recording thread).
  std::int64_t SelfNs(std::int32_t index) const {
    std::int64_t children = 0;
    for (const Span& s : spans_) {
      if (s.parent == index) {
        children += s.duration_ns();
      }
    }
    return spans_[index].duration_ns() - children;
  }

  // One line per span: index, parent, name, start_ns, end_ns, request_id.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "index\tparent\tname\tstart_ns\tend_ns\trequest_id\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%llu\n", i, s.parent,
                   names_[s.name].c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t origin_ns_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace palette::perfbench

#endif  // PALETTE_PERFBENCH_HARNESS_SPANS_H_
