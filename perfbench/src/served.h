// The serving path under test and the load that drives it: an in-process
// NetServer on loopback over QueryService and Beas, all with library
// default options (only the dataset's constraints and the workload's
// index backend are set), driven by closed-loop NetClient sessions and,
// on point_rw, an open-loop writer.

#ifndef BEAS_PERFBENCH_SERVED_H_
#define BEAS_PERFBENCH_SERVED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "beas/beas.h"
#include "net/server.h"
#include "service/query_service.h"
#include "workloads.h"

namespace perfbench {

/// One set-up of a workload: data, indices, service and listening server.
/// Members are declared so that destruction runs server -> service ->
/// Beas -> data.
struct Served {
  std::unique_ptr<beas::Dataset> dataset;
  std::unique_ptr<beas::Beas> beas;
  std::unique_ptr<beas::QueryService> service;
  std::unique_ptr<beas::NetServer> server;
  std::string index_path;  ///< block file, empty on the in-memory backend
  uint64_t cache_bytes = 0;
  double datagen_s = 0;
  double build_s = 0;  ///< Beas::Build, plus block-file build and cold reopen
  double start_s = 0;  ///< QueryService + NetServer start

  ~Served();
  double setup_s() const { return datagen_s + build_s + start_s; }
};

/// Generates the data, builds the indices (on the block-file backend:
/// builds the file, drops it and reopens it cold at the workload's cache
/// share) and starts the server. \p index_path is used on the block-file
/// backend only.
std::unique_ptr<Served> SetUp(const WorkloadConfig& config, const std::string& index_path);

/// Per-span and per-attribute numbers of one traced query.
struct TraceNumbers {
  double plan_us = 0, chase_us = 0, chat_us = 0, fetch_us = 0, dq_build_us = 0, eval_us = 0;
  double stream_us = 0, queue_wait_us = 0, epoch_wait_us = 0;
  bool has_chase = false, has_chat = false;
  int64_t fetch_ops = 0, plan_cache_hit = 0, block_cache_hits = 0, block_cache_misses = 0;
};

/// What one closed-loop session saw for one query. Kept compact: a run
/// holds one per query.
struct QueryRecord {
  uint64_t issue = 0;  ///< position in the stream
  uint64_t digest = 0;  ///< ordered row digest
  uint64_t accessed = 0;
  uint64_t epoch = 0;
  double eta = 0;
  double d_prime = 0;
  double latency_ms = 0;  ///< kQuery sent -> done page received
  double ttfp_ms = 0;     ///< kQuery sent -> first page received
  double server_ms = 0;   ///< the trailer's latency_ms
  uint32_t sql_id = 0;
  uint32_t rows = 0;
  uint32_t pages = 0;
  float done_s = 0;       ///< done page received, seconds after the phase began
  bool ok = false;
  bool exact = false;
  std::unique_ptr<std::string> error;     ///< status text when !ok
  std::unique_ptr<TraceNumbers> trace;    ///< traced queries only
};

/// One write of the open-loop writer (or the post-phase write replay).
struct WriteRecord {
  size_t op = 0;           ///< index into the write cycle
  bool ok = false;
  double latency_ms = 0;   ///< from when the write was due to its return
  double lag_ms = 0;       ///< how late the write started
  uint64_t epoch_after = 0;
};

struct PhaseResult {
  /// Each session's records, in a buffer reserved up front so that no
  /// reallocation doubles the memory they take.
  std::vector<std::vector<QueryRecord>> sessions;
  std::vector<const QueryRecord*> queries;  ///< all records, in issue order
  std::vector<WriteRecord> writes;
  double elapsed_s = 0;
  /// The phase splits into `windows` windows of `window_s` seconds (the
  /// last one runs to elapsed_s); the writer issues one write in the middle
  /// of each.
  size_t windows = 1;
  double window_s = 0;
  uint64_t cache_evictions = 0;  ///< block-cache evictions during the phase
  uint64_t bytes_sent = 0;       ///< server payload bytes during the phase
  uint64_t rows_sent = 0;
  uint64_t cache_hits = 0;       ///< block-cache hits during the phase, writes included
  uint64_t cache_misses = 0;
};

/// Shared position in the query stream; sessions take the next issue.
struct StreamCursor {
  const QueryStream* stream = nullptr;
  std::atomic<uint64_t> next{0};
};

struct PhaseOptions {
  double seconds = 1;
  bool trace = false;         ///< NetQueryOptions::trace on every query
  bool record = true;         ///< false for the untimed warm-up
  /// Writes issued open-loop at the workload's period; empty for none.
  const std::vector<WriteOp>* writes = nullptr;
  size_t* next_write = nullptr;  ///< position in the write cycle, kept across phases
};

/// Target length of a measurement window: a phase of s seconds has
/// max(1, round(s / kWindowTargetS)) equal windows.
constexpr double kWindowTargetS = 3.0;

/// Runs the workload's sessions (and writer) against \p served for
/// options.seconds.
PhaseResult RunPhase(const WorkloadConfig& config, Served* served, StreamCursor* cursor,
                     const PhaseOptions& options);

/// Applies \p ops through QueryService::Insert/Remove one after another,
/// with no readers; latency is the call's own duration.
std::vector<WriteRecord> ReplayWritesThroughService(Served* served,
                                                    const std::vector<WriteOp>& ops);

/// Ordered digest of an answer's rows (FNV-1a over the wire encoding).
uint64_t RowDigest(const std::vector<beas::Tuple>& rows);

}  // namespace perfbench

#endif  // BEAS_PERFBENCH_SERVED_H_
