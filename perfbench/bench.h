// Shared pieces of sweepbench, the sweepmv benchmark program: run options,
// the result every workload reports, and small timing helpers.

#ifndef SWEEPMV_PERFBENCH_BENCH_H_
#define SWEEPMV_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // false: end-to-end metrics with tracing off. true: the traced run that
  // yields the per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one invocation reports. `correct` is the conjunction of every
// output gate the workload ran; `attempted`/`failed` count client
// transactions (ingest) or explored schedules (explore).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable gate outcomes, printed before the result line.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a gate: a failing gate makes the whole run incorrect.
  void Gate(bool ok, const std::string& what) {
    notes.push_back(std::string(ok ? "PASS " : "FAIL ") + what);
    correct = correct && ok;
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Paces a measurement loop: another iteration runs while it is expected
// to end within the budget, and at least `min_iterations` always run.
class Budget {
 public:
  Budget(double seconds, size_t min_iterations)
      : start_(Clock::now()), seconds_(seconds), min_(min_iterations) {}

  bool More(size_t done) const {
    if (done < min_) return true;
    const double elapsed = SecondsSince(start_);
    return elapsed + elapsed / static_cast<double>(done) <= seconds_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
  size_t min_;
};

// Median of `v` (lower-upper mean for even sizes); 0 for an empty vector.
double Median(std::vector<double> v);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

Report RunIngestPerUpdate(const RunOptions& options);
Report RunIngestBatchedSharded(const RunOptions& options);
Report RunExploreExhaustive(const RunOptions& options);

}  // namespace perfbench

#endif  // SWEEPMV_PERFBENCH_BENCH_H_
