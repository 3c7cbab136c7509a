// Answer checking: every wire answer is compared with a solo in-process
// Beas::Answer of the same query on a private instance that has replayed
// the same writes up to the epoch the answer's trailer names.

#ifndef BEAS_PERFBENCH_REFERENCE_H_
#define BEAS_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "served.h"
#include "workloads.h"

namespace perfbench {

struct CheckResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;      ///< rows, digest, eta, d', accessed, exact or status differ
  uint64_t budget_overruns = 0; ///< accessed > floor(alpha * |D|)
  std::vector<std::string> samples;  ///< a few mismatch descriptions
  /// floor(alpha * |D|) of each checked query's state, parallel to the
  /// records passed in (0 where the reference failed).
  std::vector<uint64_t> budgets;
};

/// Checks \p records (all read at epochs >= \p epoch0) against references
/// computed on \p threads private in-memory instances. \p history lists the
/// writes applied through the service in order; write i moved the epoch to
/// epoch0 + i + 1.
CheckResult CheckAnswers(const WorkloadConfig& config, const QueryStream& stream,
                         const std::vector<const QueryRecord*>& records,
                         const std::vector<WriteOp>& cycle,
                         const std::vector<WriteRecord>& history, uint64_t epoch0,
                         size_t threads);

}  // namespace perfbench

#endif  // BEAS_PERFBENCH_REFERENCE_H_
