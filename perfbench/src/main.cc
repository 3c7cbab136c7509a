// beas_perfbench: one workload of the served BEAS benchmark.
//
//   beas_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--data-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// Sets the workload up several times (the median is setup_s), warms it
// up untimed, then measures it for --seconds over the wire and checks
// every answer against a solo in-process reference. --trace 0 reports the
// end-to-end metrics; --trace 1 runs an untraced and a traced half and
// reports the per-layer metrics from timers around public layer calls
// plus the wire trace. The last stdout line is the result object; the
// lines before it record the run's conditions and workload properties.
// Exits 1 on any answer mismatch or budget overrun.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "beas/executor.h"
#include "ra/fingerprint.h"
#include "reference.h"
#include "served.h"
#include "stats.h"
#include "workloads.h"

#ifndef BEAS_PERFBENCH_BUILD_TYPE
#define BEAS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
/// p99 needs at least ten samples beyond it.
constexpr uint64_t kMinQueriesForP99 = 1000;
/// Writes the traced run times through the service (read-only workloads)
/// and directly on Beas (every workload).
constexpr size_t kMinWriteSamples = 16;
constexpr auto kMemSamplePeriod = std::chrono::milliseconds(50);
/// The untimed warm-up runs for a quarter of --seconds, 1 s to this.
constexpr double kMaxWarmUpS = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string data_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args->seconds = std::atof(value.c_str());
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--data-dir") args->data_dir = value;
    else if (key == "--commit") args->commit = value;
    else if (key == "--source-digest") args->source_digest = value;
    else return false;
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resident memory now, from /proc/self/statm; the peak so far where that
/// file is missing.
double RssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
    std::fclose(f);
    if (got == 2) {
      return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
             (1024.0 * 1024.0);
    }
  }
  return PeakRssMb();
}

/// Memory the process holds from malloc now: chunks in use in every arena
/// plus mmapped chunks. Unlike RSS it leaves out freed memory the
/// allocator keeps, whose amount depends on which large queries happened
/// to overlap. Resident memory where mallinfo2 is missing.
double HeapMb() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
#else
  return RssMb();
#endif
}

/// Samples HeapMb() and RssMb() every kMemSamplePeriod from construction
/// to Stop().
class MemSampler {
 public:
  MemSampler()
      : thread_([this] {
          while (!stop_.load()) {
            heap_.push_back(HeapMb());
            rss_.push_back(RssMb());
            std::this_thread::sleep_for(kMemSamplePeriod);
          }
        }) {}
  ~MemSampler() { Stop(); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<double>& heap() const { return heap_; }
  const std::vector<double>& rss() const { return rss_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> heap_, rss_;
  std::thread thread_;
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Share of issues whose structural fingerprint appeared earlier in
/// \p queries (constants abstracted, so repeats are what a plan cache
/// could reuse).
double FingerprintRepeatShare(const beas::Beas& beas, const QueryStream& stream,
                              const std::vector<const QueryRecord*>& queries) {
  std::unordered_map<uint32_t, std::string> canon;
  std::unordered_set<std::string> seen;
  uint64_t repeats = 0;
  for (const QueryRecord* rec : queries) {
    auto it = canon.find(rec->sql_id);
    if (it == canon.end()) {
      beas::Result<beas::QueryPtr> q = beas.Parse(stream.sqls[rec->sql_id]);
      std::string c = q.ok() ? beas::FingerprintQuery(*q).canonical : stream.sqls[rec->sql_id];
      it = canon.emplace(rec->sql_id, std::move(c)).first;
    }
    if (!seen.insert(it->second).second) ++repeats;
  }
  return Ratio(static_cast<double>(repeats), static_cast<double>(queries.size()));
}

struct EndToEnd {
  double qps = 0, latency_p50_ms = 0, latency_p99_ms = 0, ttfp_p50_ms = 0, rows_per_s = 0;
  double eta_mean = 0, exact_share = 0, answered_share = 0, rows_per_query = 0;
  uint64_t attempted = 0, answered = 0;
};

/// The timed measurement: one phase of the workload's sessions, followed
/// by more (up to three times --seconds in all) while it has answered
/// fewer than kMinQueriesForP99 queries. Every phase counts.
struct Measurement {
  std::vector<PhaseResult> phases;
  std::vector<const QueryRecord*> queries;  ///< every phase's, in order
  std::vector<WriteRecord> writes;
  double elapsed_s = 0;
  uint64_t cache_evictions = 0, bytes_sent = 0, rows_sent = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
};

Measurement RunMeasured(const WorkloadConfig& config, Served* served, StreamCursor* cursor,
                        double seconds, const PhaseOptions& options) {
  Measurement m;
  PhaseOptions phase = options;
  phase.seconds = seconds;
  uint64_t answered = 0;
  while (m.phases.empty() || (answered < kMinQueriesForP99 && m.elapsed_s < 3 * seconds)) {
    m.phases.push_back(RunPhase(config, served, cursor, phase));
    const PhaseResult& p = m.phases.back();
    for (const QueryRecord* rec : p.queries) answered += rec->ok ? 1 : 0;
    m.queries.insert(m.queries.end(), p.queries.begin(), p.queries.end());
    m.writes.insert(m.writes.end(), p.writes.begin(), p.writes.end());
    m.elapsed_s += p.elapsed_s;
    m.cache_evictions += p.cache_evictions;
    m.bytes_sent += p.bytes_sent;
    m.rows_sent += p.rows_sent;
    m.cache_hits += p.cache_hits;
    m.cache_misses += p.cache_misses;
  }
  return m;
}

/// The timing figures of one measurement window.
struct Window {
  double qps = 0, latency_p50_ms = 0, latency_p99_ms = 0, ttfp_p50_ms = 0;
};

/// Splits \p p's answered queries into its windows by completion time.
void AddWindows(const PhaseResult& p, std::vector<Window>* out) {
  std::vector<std::vector<double>> latency(p.windows), ttfp(p.windows);
  for (const QueryRecord* rec : p.queries) {
    if (!rec->ok) continue;
    const size_t i =
        std::min(p.windows - 1, static_cast<size_t>(static_cast<double>(rec->done_s) / p.window_s));
    latency[i].push_back(rec->latency_ms);
    ttfp[i].push_back(rec->ttfp_ms);
  }
  for (size_t i = 0; i < p.windows; ++i) {
    const double begin = static_cast<double>(i) * p.window_s;
    const double span = i + 1 < p.windows ? p.window_s : p.elapsed_s - begin;
    Window w;
    w.qps = Ratio(static_cast<double>(latency[i].size()), span);
    w.latency_p50_ms = Percentile(latency[i], 50);
    w.latency_p99_ms = Percentile(latency[i], 99);
    w.ttfp_p50_ms = Percentile(ttfp[i], 50);
    out->push_back(w);
  }
}

/// Median over windows of one timing figure.
double WindowMedian(const std::vector<Window>& windows, double Window::*figure) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(w.*figure);
  return Percentile(std::move(v), 50);
}

/// Timing figures are medians over the measurement's windows of about
/// kWindowTargetS: each window holds one write on point_rw, and a host
/// stall over less than half the windows moves no median. The other
/// figures pool every answered query. rows_per_s is qps times the pooled
/// rows per query: answer sizes are heavy-tailed on paper_mix, so a
/// window's own row count depends on which few large answers fell in it.
EndToEnd Summarize(const Measurement& m) {
  EndToEnd e;
  std::vector<double> eta;
  uint64_t rows = 0, exact = 0;
  for (const QueryRecord* rec : m.queries) {
    ++e.attempted;
    if (!rec->ok) continue;
    ++e.answered;
    eta.push_back(rec->eta);
    rows += rec->rows;
    exact += rec->exact ? 1 : 0;
  }
  std::vector<Window> windows;
  for (const PhaseResult& p : m.phases) AddWindows(p, &windows);
  const double n = static_cast<double>(e.answered);
  e.qps = WindowMedian(windows, &Window::qps);
  e.latency_p50_ms = WindowMedian(windows, &Window::latency_p50_ms);
  e.latency_p99_ms = WindowMedian(windows, &Window::latency_p99_ms);
  e.ttfp_p50_ms = WindowMedian(windows, &Window::ttfp_p50_ms);
  e.eta_mean = Mean(eta);
  e.exact_share = Ratio(static_cast<double>(exact), n);
  e.answered_share = Ratio(n, static_cast<double>(e.attempted));
  e.rows_per_query = Ratio(static_cast<double>(rows), n);
  e.rows_per_s = e.qps * e.rows_per_query;
  return e;
}

struct Replay {
  std::vector<double> parse_us, plan_us, exec_us;
};

/// In-process replay of the phase's distinct queries with timers around
/// Beas::Parse, Beas::PlanOnly and PlanExecutor::Execute (no server
/// traffic runs meanwhile). Capped at \p max_seconds.
Replay ReplayInProcess(const WorkloadConfig& config, const beas::Beas& beas,
                       const QueryStream& stream,
                       const std::vector<const QueryRecord*>& queries,
                       double max_seconds) {
  Replay r;
  beas::PlanExecutor executor(&beas.store(), beas.eval_options());
  const uint64_t budget =
      static_cast<uint64_t>(std::floor(config.alpha * static_cast<double>(beas.db_size())));
  std::unordered_set<uint32_t> done;
  const Clock::time_point start = Clock::now();
  for (const QueryRecord* rec : queries) {
    if (SecondsSince(start) > max_seconds) break;
    if (!done.insert(rec->sql_id).second) continue;
    Clock::time_point t0 = Clock::now();
    beas::Result<beas::QueryPtr> q = beas.Parse(stream.sqls[rec->sql_id]);
    r.parse_us.push_back(MsBetween(t0, Clock::now()) * 1000);
    if (!q.ok()) continue;
    t0 = Clock::now();
    beas::Result<beas::BeasPlan> plan = beas.PlanOnly(*q, config.alpha);
    r.plan_us.push_back(MsBetween(t0, Clock::now()) * 1000);
    if (!plan.ok()) continue;
    t0 = Clock::now();
    beas::Result<beas::BeasAnswer> answer = executor.Execute(*plan, budget);
    r.exec_us.push_back(MsBetween(t0, Clock::now()) * 1000);
  }
  return r;
}

/// Replays whole write cycles through the service, with no readers, until
/// at least \p n writes are timed.
void ReplayWrites(Served* served, const std::vector<WriteOp>& cycle, size_t n,
                  std::vector<double>* ms, bool* ok) {
  for (size_t done = 0; done < n;) {
    for (const WriteRecord& w : ReplayWritesThroughService(served, cycle)) {
      ms->push_back(w.latency_ms);
      *ok = *ok && w.ok;
      ++done;
    }
  }
}

/// Beas::Insert/Remove of the write cycle with no readers (direct calls,
/// no service), microseconds each.
std::vector<double> TimeDirectWrites(beas::Beas* beas, const std::vector<WriteOp>& cycle,
                                     bool* ok) {
  std::vector<double> out;
  for (const WriteOp& op : cycle) {
    const Clock::time_point t0 = Clock::now();
    beas::Status st = op.insert ? beas->Insert(op.relation, op.row)
                                : beas->Remove(op.relation, op.row);
    out.push_back(MsBetween(t0, Clock::now()) * 1000);
    *ok = *ok && st.ok();
  }
  return out;
}

std::string Metric(double value, const std::string& unit) {
  return JsonObject().Num("value", value).Str("unit", unit).ToString();
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string index_path = args.data_dir + "/" + config->name + "-" +
                                 std::to_string(static_cast<long long>(getpid())) + ".blk";

  // Set-up, several times; the last instance serves the run.
  const bool read_only = !config->writes;
  std::vector<double> setup_s, datagen_s, build_s;
  std::unique_ptr<Served> served;
  for (int r = 0; r < kSetupReps; ++r) {
    served.reset();
    served = SetUp(*config, index_path);
    if (served == nullptr) return 2;
    setup_s.push_back(served->setup_s());
    datagen_s.push_back(served->datagen_s);
    build_s.push_back(served->build_s);
  }
  beas::Beas& beas = *served->beas;
  const uint64_t index_bytes = beas.store().disk_bytes();
  const double setup_peak_rss_mb = PeakRssMb();

  const size_t stream_length =
      config->name == "paper_mix"
          ? static_cast<size_t>(1000 * (args.seconds + 4))
          : static_cast<size_t>(40000 * (args.seconds + 4));
  const QueryStream stream = MakeQueryStream(*config, *served->dataset, args.seed, stream_length);
  const std::vector<WriteOp> cycle = WriteCycle(*config, *served->dataset);
  StreamCursor cursor;
  cursor.stream = &stream;

  // Untimed warm-up: reads only. Memory while serving is sampled here,
  // not in the timed phase: reading the heap's size locks malloc's arenas
  // for up to ~15 ms, which would stall the queries being timed.
  double serving_heap_mb = 0, serving_rss_mb = 0;
  {
    PhaseOptions warm;
    warm.seconds = std::min(kMaxWarmUpS, std::max(1.0, args.seconds / 4));
    warm.record = false;
    MemSampler mem;
    RunPhase(*config, served.get(), &cursor, warm);
    mem.Stop();
    serving_heap_mb = Median(mem.heap());
    serving_rss_mb = Median(mem.rss());
  }
  // Peak memory through set-up and the warm-up's serving, taken before
  // the timed phase adds the benchmark's own query records.
  const double warm_peak_rss_mb = PeakRssMb();
  const uint64_t epoch0 = served->service->stats().epoch;

  size_t next_write = 0;
  PhaseOptions timed;
  if (!read_only) {
    timed.writes = &cycle;
    timed.next_write = &next_write;
  }
  // The traced run measures an untraced and a traced half; the per-layer
  // figures come from the traced one.
  std::vector<Measurement> phases;
  const CpuTicks ticks_before = ReadCpuTicks();
  phases.push_back(RunMeasured(*config, served.get(), &cursor,
                               args.trace ? args.seconds / 2 : args.seconds, timed));
  // Share of the host's CPU time the hypervisor took during the timed
  // phase: on a shared host, the likeliest reason for an outlying run.
  const CpuTicks ticks_after = ReadCpuTicks();
  const double steal_share = Ratio(ticks_after.steal - ticks_before.steal,
                                   ticks_after.total - ticks_before.total);
  if (args.trace) {
    timed.trace = true;
    phases.push_back(RunMeasured(*config, served.get(), &cursor, args.seconds / 2, timed));
  }
  const Measurement& measured = phases.back();

  // Service writes: the open-loop writer's on point_rw; in the traced run
  // of a read-only workload, the write cycle replayed with no readers.
  std::vector<WriteRecord> history;
  for (const Measurement& p : phases) {
    history.insert(history.end(), p.writes.begin(), p.writes.end());
  }
  std::vector<double> write_ms;
  bool writes_ok = true;
  for (const WriteRecord& w : history) {
    write_ms.push_back(w.latency_ms);
    writes_ok = writes_ok && w.ok;
  }
  double writer_lag_max_ms = 0, writer_busy_s = 0, timed_s = 0;
  for (const WriteRecord& w : history) {
    writer_lag_max_ms = std::max(writer_lag_max_ms, w.lag_ms);
    writer_busy_s += w.latency_ms / 1000;
  }
  for (const Measurement& p : phases) timed_s += p.elapsed_s;
  if (args.trace && read_only) {
    ReplayWrites(served.get(), cycle, kMinWriteSamples, &write_ms, &writes_ok);
  }
  served->server->Stop();

  // Per-layer timers around public calls, with the server stopped.
  Replay replay;
  std::vector<double> apply_us;
  if (args.trace) {
    replay = ReplayInProcess(*config, beas, stream, measured.queries, 2.0);
    while (apply_us.size() < kMinWriteSamples) {
      for (double us : TimeDirectWrites(&beas, cycle, &writes_ok)) apply_us.push_back(us);
    }
  }

  // Check every recorded answer.
  std::vector<const QueryRecord*> all;
  for (const Measurement& p : phases) {
    all.insert(all.end(), p.queries.begin(), p.queries.end());
  }
  const size_t ref_threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  const CheckResult check =
      CheckAnswers(*config, stream, all, cycle, history, epoch0, ref_threads);
  for (const std::string& s : check.samples) std::fprintf(stderr, "MISMATCH %s\n", s.c_str());

  const EndToEnd e2e = Summarize(measured);
  const double repeat_share = FingerprintRepeatShare(beas, stream, measured.queries);
  const double block_hit_share =
      Ratio(static_cast<double>(measured.cache_hits),
            static_cast<double>(measured.cache_hits + measured.cache_misses));

  uint64_t attempted = 0, failed = 0;
  for (const Measurement& p : phases) {
    for (const QueryRecord* rec : p.queries) {
      ++attempted;
      failed += rec->ok ? 0 : 1;
    }
  }
  attempted += history.size();
  for (const WriteRecord& w : history) failed += w.ok ? 0 : 1;
  const bool correct = check.mismatches == 0 && check.budget_overruns == 0 && writes_ok;

  // Conditions of the run, so points from different hosts never mix.
  const double db_size = static_cast<double>(beas.db_size());
  JsonObject conditions;
  conditions.Str("workload", config->name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("compiler", __VERSION__)
      .Str("build_type", BEAS_PERFBENCH_BUILD_TYPE)
      .Str("git_commit", args.commit)
      .Str("source_digest", args.source_digest)
      .Num("sessions", static_cast<double>(config->sessions))
      .Num("alpha", config->alpha)
      .Str("backend", config->backend == beas::IndexBackendKind::kBlockFile ? "block_file"
                                                                             : "memory")
      .Num("db_tuples", db_size)
      .Num("budget_tuples", std::floor(config->alpha * db_size))
      .Num("index_entries", static_cast<double>(beas.store().TotalEntries()))
      .Num("index_bytes", static_cast<double>(index_bytes))
      .Num("index_bytes_end", static_cast<double>(beas.store().disk_bytes()))
      .Num("cache_budget_bytes", static_cast<double>(served->cache_bytes))
      .Num("steal_share", steal_share);
  std::printf("conditions %s\n", conditions.ToString().c_str());

  JsonObject properties;
  properties.Num("fingerprint_repeat_share", repeat_share)
      .Num("exact_share", e2e.exact_share)
      .Num("rows_per_query", e2e.rows_per_query)
      .Num("block_cache_hit_share", block_hit_share)
      .Num("queries", static_cast<double>(e2e.attempted))
      .Num("writes", static_cast<double>(history.size()))
      .Num("writer_lag_max_ms", writer_lag_max_ms)
      .Num("writer_busy_share", Ratio(writer_busy_s, timed_s))
      .Num("checked", static_cast<double>(check.checked))
      .Num("mismatches", static_cast<double>(check.mismatches))
      .Num("budget_overruns", static_cast<double>(check.budget_overruns));
  std::printf("properties %s\n", properties.ToString().c_str());

  JsonObject metrics;
  if (!args.trace) {
    metrics.Raw("setup_s", Metric(Median(setup_s), "s"))
        .Raw("qps", Metric(e2e.qps, "1/s"))
        .Raw("latency_p50_ms", Metric(e2e.latency_p50_ms, "ms"))
        .Raw("latency_p99_ms", Metric(e2e.latency_p99_ms, "ms"))
        .Raw("ttfp_p50_ms", Metric(e2e.ttfp_p50_ms, "ms"))
        .Raw("rows_per_s", Metric(e2e.rows_per_s, "1/s"))
        .Raw("eta_mean", Metric(e2e.eta_mean, "ratio"))
        .Raw("exact_share", Metric(e2e.exact_share, "ratio"))
        .Raw("answered_share", Metric(e2e.answered_share, "ratio"))
        .Raw("serving_heap_mb", Metric(serving_heap_mb, "MB"));
  } else {
    const EndToEnd untraced = Summarize(phases.front());
    std::vector<double> chase, chat, fetch, dq_build, eval, queue_wait, epoch_wait, stream_us;
    std::vector<double> service_self, net_self, ttfp_share;
    double fetch_ops = 0, plan_hits = 0, frames = 0, accessed = 0, budget_use = 0;
    double block_hits = 0, block_misses = 0, rows = 0;
    double answered = 0;
    for (size_t i = 0; i < measured.queries.size(); ++i) {
      const QueryRecord& rec = *measured.queries[i];
      frames += 2.0 * (1 + static_cast<double>(rec.pages));
      if (!rec.ok || rec.trace == nullptr) continue;
      const TraceNumbers& t = *rec.trace;
      answered += 1;
      if (t.has_chase) chase.push_back(t.chase_us);
      if (t.has_chat) chat.push_back(t.chat_us);
      fetch.push_back(t.fetch_us);
      dq_build.push_back(t.dq_build_us);
      eval.push_back(t.eval_us);
      queue_wait.push_back(t.queue_wait_us);
      epoch_wait.push_back(t.epoch_wait_us);
      stream_us.push_back(t.stream_us);
      service_self.push_back(rec.server_ms * 1000 - t.plan_us - t.fetch_us - t.dq_build_us -
                             t.eval_us);
      net_self.push_back((rec.latency_ms - rec.server_ms) * 1000);
      ttfp_share.push_back(Ratio(rec.ttfp_ms, rec.latency_ms));
      fetch_ops += static_cast<double>(t.fetch_ops);
      plan_hits += static_cast<double>(t.plan_cache_hit);
      block_hits += static_cast<double>(t.block_cache_hits);
      block_misses += static_cast<double>(t.block_cache_misses);
      accessed += static_cast<double>(rec.accessed);
      rows += static_cast<double>(rec.rows);
      // check.budgets runs over every phase's records; the measured
      // (traced) phase is the last block of them.
      const uint64_t budget =
          check.budgets[check.budgets.size() - measured.queries.size() + i];
      budget_use += Ratio(static_cast<double>(rec.accessed), static_cast<double>(budget));
    }
    const double n = static_cast<double>(measured.queries.size());
    const double apply_p50_us = Median(apply_us);
    metrics.Raw("setup.datagen_s", Metric(Median(datagen_s), "s"))
        .Raw("setup.build_s", Metric(Median(build_s), "s"))
        .Raw("index.entries_per_tuple",
             Metric(Ratio(static_cast<double>(beas.store().TotalEntries()), db_size),
                    "entries/tuple"))
        .Raw("index.disk_bytes_per_tuple",
             Metric(Ratio(static_cast<double>(index_bytes), db_size), "B/tuple"))
        .Raw("ra.parse_us_p50", Metric(Median(replay.parse_us), "us"))
        .Raw("plan.us_p50", Metric(Median(replay.plan_us), "us"))
        .Raw("plan.us_p99", Metric(Percentile(replay.plan_us, 99), "us"))
        .Raw("plan.chase_us_p50", Metric(Median(chase), "us"))
        .Raw("plan.chat_us_p50", Metric(Median(chat), "us"))
        .Raw("plan.cache_hit_share", Metric(Ratio(plan_hits, answered), "ratio"))
        .Raw("plan.fingerprint_repeat_share", Metric(repeat_share, "ratio"))
        .Raw("exec.us_p50", Metric(Median(replay.exec_us), "us"))
        .Raw("exec.us_p99", Metric(Percentile(replay.exec_us, 99), "us"))
        .Raw("exec.fetch_us_p50", Metric(Median(fetch), "us"))
        .Raw("exec.dq_build_us_p50", Metric(Median(dq_build), "us"))
        .Raw("exec.eval_us_p50", Metric(Median(eval), "us"))
        .Raw("exec.fetch_ops_per_query", Metric(Ratio(fetch_ops, answered), "count"))
        .Raw("exec.accessed_per_query", Metric(Ratio(accessed, answered), "tuples"))
        .Raw("exec.budget_use", Metric(Ratio(budget_use, answered), "ratio"))
        .Raw("exec.rows_per_accessed", Metric(Ratio(rows, accessed), "ratio"))
        .Raw("index.cache_hit_share",
             Metric(Ratio(block_hits, block_hits + block_misses), "ratio"))
        .Raw("index.cache_misses_per_query", Metric(Ratio(block_misses, answered), "count"))
        .Raw("index.cache_evictions_per_query",
             Metric(Ratio(static_cast<double>(measured.cache_evictions), n), "count"))
        .Raw("write.p50_ms", Metric(Median(write_ms), "ms"))
        .Raw("maint.apply_us_p50", Metric(apply_p50_us, "us"))
        .Raw("service.queue_wait_us_p50", Metric(Median(queue_wait), "us"))
        .Raw("service.queue_wait_us_p99", Metric(Percentile(queue_wait, 99), "us"))
        .Raw("service.epoch_wait_us_p99", Metric(Percentile(epoch_wait, 99), "us"))
        .Raw("service.epoch_wait_us_max", Metric(Percentile(epoch_wait, 100), "us"))
        .Raw("service.self_us_p50", Metric(Median(service_self), "us"))
        .Raw("service.write_wait_ms_p50", Metric(Median(write_ms) - apply_p50_us / 1000, "ms"))
        .Raw("service.stream_us_p50", Metric(Median(stream_us), "us"))
        .Raw("net.self_us_p50", Metric(Median(net_self), "us"))
        .Raw("net.self_us_p99", Metric(Percentile(net_self, 99), "us"))
        .Raw("net.frames_per_query", Metric(Ratio(frames, n), "count"))
        .Raw("net.bytes_per_row", Metric(Ratio(static_cast<double>(measured.bytes_sent),
                                                static_cast<double>(measured.rows_sent)),
                                          "B/row"))
        .Raw("net.ttfp_share", Metric(Median(ttfp_share), "ratio"))
        .Raw("trace.qps_ratio", Metric(Ratio(e2e.qps, untraced.qps), "ratio"))
        .Raw("trace.latency_p50_ratio",
             Metric(Ratio(e2e.latency_p50_ms, untraced.latency_p50_ms), "ratio"))
        .Raw("writer.lag_ms_max", Metric(writer_lag_max_ms, "ms"))
        .Raw("mem.setup_peak_rss_mb", Metric(setup_peak_rss_mb, "MB"))
        .Raw("mem.warm_peak_rss_mb", Metric(warm_peak_rss_mb, "MB"))
        .Raw("mem.serving_rss_mb", Metric(serving_rss_mb, "MB"));
  }

  JsonObject result;
  result.Bool("correct", correct)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Raw("metrics", metrics.ToString());
  std::fflush(stderr);
  std::printf("%s\n", result.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: beas_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--data-dir <dir>] [--commit <id>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
