#pragma once
// Snapshot serialization: JSON (via util::JsonWriter) and Prometheus
// text exposition format, plus file/fd dump helpers.
//
// Histograms are exported as Prometheus *summaries* (quantile series +
// _sum/_count) rather than native histograms: shipping 1152 buckets per
// metric would drown a scrape, and the registry already computes the
// quantiles with bounded relative error.  The tracked maximum goes out
// as an auxiliary `<name>_max` gauge (the one tail statistic a summary
// cannot recover).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"

namespace wfe::obs {

enum class ExportFormat { kJson, kPrometheus };

inline void to_json(util::JsonWriter& j, const RegistrySnapshot& s) {
  j.begin_object();
  j.kv("at_ns", s.at_ns);
  j.key("histograms").begin_array();
  for (const HistogramSummary& h : s.histograms) {
    j.begin_object();
    j.kv("name", h.name.c_str());
    j.kv("count", h.count);
    j.kv("sum_ns", h.sum_ns);
    j.kv("mean_ns", h.mean_ns);
    j.kv("p50_ns", h.p50_ns);
    j.kv("p90_ns", h.p90_ns);
    j.kv("p99_ns", h.p99_ns);
    j.kv("p999_ns", h.p999_ns);
    j.kv("max_ns", h.max_ns);
    j.end_object();
  }
  j.end_array();
  j.key("gauges").begin_object();
  for (const GaugeValue& g : s.gauges) j.kv(g.name.c_str(), g.value);
  j.end_object();
  j.end_object();
}

inline void to_json(util::JsonWriter& j, const std::vector<TraceEvent>& evs) {
  j.begin_array();
  for (const TraceEvent& e : evs) {
    j.begin_object();
    j.kv("seq", e.seq);
    j.kv("op", name(e.op));
    j.kv("shard", static_cast<std::uint64_t>(e.shard));
    j.kv("ns", e.ns);
    j.kv("cause", name(e.cause));
    j.kv("aux", static_cast<std::uint64_t>(e.aux));
    j.end_object();
  }
  j.end_array();
}

inline std::string to_json_string(const RegistrySnapshot& s) {
  util::JsonWriter j;
  to_json(j, s);
  return j.str();
}

inline std::string to_prometheus(const RegistrySnapshot& s) {
  std::string out;
  char buf[160];
  const auto emit_u64 = [&](const char* fmt, const char* metric,
                            std::uint64_t v) {
    std::snprintf(buf, sizeof buf, fmt, metric,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  for (const HistogramSummary& h : s.histograms) {
    const char* n = h.name.c_str();
    std::snprintf(buf, sizeof buf,
                  "# HELP %s latency summary in nanoseconds\n", n);
    out += buf;
    std::snprintf(buf, sizeof buf, "# TYPE %s summary\n", n);
    out += buf;
    const std::pair<const char*, std::uint64_t> qs[] = {
        {"0.5", h.p50_ns}, {"0.9", h.p90_ns},
        {"0.99", h.p99_ns}, {"0.999", h.p999_ns}};
    for (const auto& [q, v] : qs) {
      std::snprintf(buf, sizeof buf, "%s{quantile=\"%s\"} %llu\n", n, q,
                    static_cast<unsigned long long>(v));
      out += buf;
    }
    // Exact accumulated sum (the registry carries it through), not the
    // old mean*count round-trip whose double rounding dropped units.
    // Integer text is a valid Prometheus float literal with no added
    // precision loss.
    emit_u64("%s_sum %llu\n", n, h.sum_ns);
    emit_u64("%s_count %llu\n", n, h.count);
    std::snprintf(buf, sizeof buf,
                  "# HELP %s_max maximum recorded latency in nanoseconds\n",
                  n);
    out += buf;
    std::snprintf(buf, sizeof buf, "# TYPE %s_max gauge\n", n);
    out += buf;
    emit_u64("%s_max %llu\n", n, h.max_ns);
  }
  for (const GaugeValue& g : s.gauges) {
    std::snprintf(buf, sizeof buf, "# HELP %s kv store gauge\n",
                  g.name.c_str());
    out += buf;
    std::snprintf(buf, sizeof buf, "# TYPE %s gauge\n", g.name.c_str());
    out += buf;
    std::snprintf(buf, sizeof buf, "%s %.9g\n", g.name.c_str(), g.value);
    out += buf;
  }
  return out;
}

inline std::string serialize(const RegistrySnapshot& s, ExportFormat fmt) {
  return fmt == ExportFormat::kJson ? to_json_string(s) : to_prometheus(s);
}

/// Crash-atomic dump through util::replace_file: a reader at `path`
/// sees the old dump or the new one, never a torn mix.
inline bool dump_to_file(const char* path, const std::string& text) {
  const std::string line = text + '\n';
  return util::replace_file(path, line.data(), line.size());
}

/// The same line to an open descriptor (a stats socket, stderr) through
/// util::write_all; false when the kernel took less than all of it.
inline bool dump_to_fd(int fd, const std::string& text) {
  const std::string line = text + '\n';
  return util::write_all(fd, line.data(), line.size()) == line.size();
}

}  // namespace wfe::obs
