// The three served workloads of the BEAS benchmark: which dataset each one
// runs on, how many client sessions it drives, which index backend the
// server uses, and the seeded query stream and write cycle it issues.
// The program under test only ever sees the generated SQL and rows.

#ifndef BEAS_PERFBENCH_WORKLOADS_H_
#define BEAS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index_store.h"
#include "types/tuple.h"
#include "workload/workload.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  double alpha = 0.01;
  /// Closed-loop NetClient sessions (each blocks on its reply).
  size_t sessions = 1;
  beas::IndexBackendKind backend = beas::IndexBackendKind::kMemory;
  /// Block-cache budget as a share of the index file (block file only).
  double cache_share = 0;
  /// Whether an open-loop writer issues one write per measurement window
  /// (about every kWindowTargetS seconds); false for a read-only workload.
  bool writes = false;
};

/// nullptr when \p name is not one of the three workloads.
const WorkloadConfig* FindWorkload(const std::string& name);

/// The workload's dataset. The data seed is fixed, so every run of a
/// workload serves the same |D|; --seed varies the query stream.
std::unique_ptr<beas::Dataset> MakeDataset(const WorkloadConfig& config);

/// Distinct SQL texts plus the order in which sessions issue them (all
/// sessions share one cursor into `order`).
struct QueryStream {
  std::vector<std::string> sqls;
  std::vector<uint32_t> order;
};

/// Generates \p length issues from \p seed; the same seed gives the same
/// stream.
QueryStream MakeQueryStream(const WorkloadConfig& config, const beas::Dataset& dataset,
                            uint64_t seed, size_t length);

struct WriteOp {
  bool insert = true;
  std::string relation;
  beas::Tuple row;
};

/// A deterministic sequence of writes that leaves the database in its
/// initial logical state. The open-loop writer of point_rw repeats it;
/// the other workloads replay it once, with no readers, after their timed
/// phase to measure write latency on their dataset.
std::vector<WriteOp> WriteCycle(const WorkloadConfig& config, const beas::Dataset& dataset);

}  // namespace perfbench

#endif  // BEAS_PERFBENCH_WORKLOADS_H_
