#ifndef SCODED_BENCH_BENCH_UTIL_H_
#define SCODED_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction harness. Each bench binary
// regenerates one table/figure of the paper and prints the corresponding
// rows/series; the sweep machinery itself lives in the library
// (`eval/comparison.h`) so applications can reuse it.
//
// A binary that calls Init("fig9_sensor") additionally writes
// BENCH_fig9_sensor.json into the working directory at exit: per-section
// wall-clock (sections are delimited by PrintTitle calls), every F-score
// sweep as structured data (including per-detector runtime), any scalar
// series recorded with RecordValue, a "build" stanza identifying the
// binary, and — since the profiler is on by default in bench binaries —
// a "profile" stanza with per-span self-time aggregates. The CI/driver
// scripts diff these artefacts (tools/benchdiff) instead of scraping
// stdout.
//
// Environment knobs:
//   SCODED_BENCH_PROFILE=0    disable the default-on span profiler
//   SCODED_BENCH_TRACE=FILE   also record a Chrome trace and write it to
//                             FILE at exit (for profile-vs-trace checks)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fileio.h"
#include "common/json.h"
#include "eval/comparison.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "table/table.h"

namespace scoded::bench {

/// Collects the machine-readable run record of one bench binary.
/// Header-only singleton so adopting it is a single Init() line per main.
class Reporter {
 public:
  static Reporter& Global() {
    static Reporter* reporter = new Reporter;
    return *reporter;
  }

  /// Names the artefact (BENCH_<name>.json), arms the at-exit write, and
  /// turns the span profiler on (opt out with SCODED_BENCH_PROFILE=0).
  void Init(std::string name) {
    name_ = std::move(name);
    const char* profile = std::getenv("SCODED_BENCH_PROFILE");
    if (profile == nullptr || std::string(profile) != "0") {
      obs::EnableProfiler();
    }
    if (const char* trace = std::getenv("SCODED_BENCH_TRACE")) {
      trace_path_ = trace;
      obs::Tracer::Global().Enable();
    }
    if (!atexit_armed_) {
      atexit_armed_ = true;
      std::atexit([] { Global().Write(); });
    }
  }

  /// Closes the previous section (recording its wall-clock) and opens a
  /// new one. Sections map 1:1 to PrintTitle calls.
  void StartSection(const std::string& title) {
    CloseSection();
    sections_.push_back(Section{title, obs::NowMicros(), -1.0, {}, {}});
  }

  /// Closes the current section now instead of at the at-exit write, so
  /// clean-up and process exit are not timed into it.
  void EndSection() { CloseSection(); }

  /// Attaches a structured F-score sweep to the current section.
  void RecordSweep(const ComparisonResult& result) {
    EnsureSection();
    sections_.back().sweeps.push_back(result.ToJson());
  }

  /// Attaches one labelled scalar (e.g. a runtime measurement) to the
  /// current section.
  void RecordValue(const std::string& label, double value) {
    EnsureSection();
    sections_.back().values.emplace_back(label, value);
  }

  /// Writes BENCH_<name>.json (and the SCODED_BENCH_TRACE trace file, when
  /// requested); a no-op unless Init() was called.
  void Write() {
    if (name_.empty() || written_) {
      return;
    }
    written_ = true;
    CloseSection();
    JsonWriter json;
    json.BeginObject();
    json.Key("bench").String(name_);
    json.Key("build").Raw(obs::BuildInfoJson());
    json.Key("total_ms").Double(TotalMs());
    json.Key("sections").BeginArray();
    for (const Section& section : sections_) {
      json.BeginObject();
      json.Key("title").String(section.title);
      json.Key("ms").Double(section.ms);
      if (!section.sweeps.empty()) {
        json.Key("sweeps").BeginArray();
        for (const std::string& sweep : section.sweeps) {
          json.Raw(sweep);
        }
        json.EndArray();
      }
      if (!section.values.empty()) {
        json.Key("values").BeginArray();
        for (const auto& [label, value] : section.values) {
          json.BeginObject();
          json.Key("label").String(label);
          json.Key("value").Double(value);
          json.EndObject();
        }
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();
    if (obs::Profiler::Global().NumSpanNames() > 0) {
      json.Key("profile").Raw(obs::Profiler::Global().SnapshotJson());
    }
    json.EndObject();
    std::string path = "BENCH_" + name_ + ".json";
    Status write = WriteTextFile(path, json.str());
    if (!write.ok()) {
      obs::LogError("cannot write bench artefact", {{"error", write.ToString()}});
      return;
    }
    obs::LogInfo("wrote bench artefact", {{"path", path}});
    if (obs::Profiler::Global().NumSpanNames() > 0) {
      // The self-time table goes to stderr: stdout stays reserved for the
      // paper table/figure the binary reproduces.
      std::fputs(obs::Profiler::Global().FlatTableText(20).c_str(), stderr);
    }
    if (!trace_path_.empty()) {
      Status trace = obs::Tracer::Global().WriteFile(trace_path_);
      if (!trace.ok()) {
        obs::LogError("cannot write bench trace", {{"error", trace.ToString()}});
      } else {
        obs::LogInfo("wrote bench trace", {{"path", trace_path_}});
      }
    }
  }

 private:
  struct Section {
    std::string title;
    int64_t start_us = 0;
    double ms = -1.0;
    std::vector<std::string> sweeps;  // pre-rendered ComparisonResult JSON
    std::vector<std::pair<std::string, double>> values;
  };

  void EnsureSection() {
    if (sections_.empty()) {
      StartSection("main");
    }
  }

  void CloseSection() {
    if (!sections_.empty() && sections_.back().ms < 0.0) {
      sections_.back().ms =
          static_cast<double>(obs::NowMicros() - sections_.back().start_us) / 1000.0;
    }
  }

  double TotalMs() const {
    double total = 0.0;
    for (const Section& section : sections_) {
      total += section.ms > 0.0 ? section.ms : 0.0;
    }
    return total;
  }

  std::string name_;
  std::string trace_path_;
  bool atexit_armed_ = false;
  bool written_ = false;
  std::vector<Section> sections_;
};

/// Names this binary's BENCH_<name>.json artefact and arms its at-exit
/// write. Call once at the top of main().
inline void Init(const std::string& name) { Reporter::Global().Init(name); }

inline void PrintTitle(const std::string& title) {
  Reporter::Global().StartSection(title);
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Ends the last section where main()'s measured work ends; call it before
/// removing fixtures.
inline void EndSection() { Reporter::Global().EndSection(); }

/// Records one labelled scalar (runtime, p-value, ...) into the current
/// section of the JSON artefact.
inline void RecordValue(const std::string& label, double value) {
  Reporter::Global().RecordValue(label, value);
}

/// Best-of-N measurement. Runs `measure` once as a cold-cache warm-up
/// whose result is discarded — the first execution pays page faults,
/// instruction-cache misses, and allocator growth that no steady-state
/// run sees, so folding it into the minimum only adds noise when N is
/// small — then `reps` more times and returns the smallest returned
/// value (the standard estimator of the true, noise-free cost).
/// `measure` returns its own reading so callers can keep setup outside
/// the timed region.
template <typename Fn>
inline double BestOf(int reps, Fn&& measure) {
  (void)measure();  // cold-cache warm-up, discarded
  double best = measure();
  for (int rep = 1; rep < reps; ++rep) {
    best = std::min(best, measure());
  }
  return best;
}

/// Runs every detector once (ranking up to max(ks)) and prints an
/// F-score@K sweep table: one row per k, one column per detector, plus a
/// per-detector runtime row. The sweep also lands in the JSON artefact.
inline void PrintFScoreSweep(const Table& table, const std::set<size_t>& truth,
                             const std::vector<ErrorDetector*>& detectors,
                             const std::vector<size_t>& ks) {
  ComparisonResult result = CompareDetectors(table, truth, detectors, ks);
  Reporter::Global().RecordSweep(result);
  std::fputs(result.ToText().c_str(), stdout);
}

/// Standard k sweep: fractions of the ground-truth size.
inline std::vector<size_t> KSweep(size_t truth_size) { return StandardKSweep(truth_size); }

}  // namespace scoded::bench

#endif  // SCODED_BENCH_BENCH_UTIL_H_
