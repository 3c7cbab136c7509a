#include "served.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "net/client.h"
#include "stats.h"
#include "storage/codec.h"

namespace perfbench {

Served::~Served() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
  beas.reset();
  if (!index_path.empty()) std::remove(index_path.c_str());
}

std::unique_ptr<Served> SetUp(const WorkloadConfig& config, const std::string& index_path) {
  auto served = std::make_unique<Served>();
  Clock::time_point t0 = Clock::now();
  served->dataset = MakeDataset(config);
  served->datagen_s = SecondsSince(t0);

  t0 = Clock::now();
  beas::BeasOptions options;
  options.constraints = served->dataset->constraints;
  if (config.backend == beas::IndexBackendKind::kBlockFile) {
    served->index_path = index_path;
    std::remove(index_path.c_str());
    options.index.backend = config.backend;
    options.index.path = index_path;
    uint64_t file_bytes = 0;
    {
      auto built = beas::Beas::Build(&served->dataset->db, options);
      if (!built.ok()) {
        std::fprintf(stderr, "FATAL: block-file build failed: %s\n",
                     built.status().ToString().c_str());
        return nullptr;
      }
      file_bytes = (*built)->store().disk_bytes();
    }
    options.index.open_existing = true;
    options.index.cache_bytes =
        static_cast<uint64_t>(config.cache_share * static_cast<double>(file_bytes));
  }
  auto built = beas::Beas::Build(&served->dataset->db, options);
  if (!built.ok()) {
    std::fprintf(stderr, "FATAL: Beas::Build failed: %s\n", built.status().ToString().c_str());
    return nullptr;
  }
  served->beas = std::move(*built);
  served->cache_bytes = options.index.cache_bytes;
  served->build_s = SecondsSince(t0);

  t0 = Clock::now();
  served->service = std::make_unique<beas::QueryService>(served->beas.get());
  served->server = std::make_unique<beas::NetServer>(served->service.get());
  if (beas::Status st = served->server->Start(); !st.ok()) {
    std::fprintf(stderr, "FATAL: NetServer::Start failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  served->start_s = SecondsSince(t0);
  return served;
}

uint64_t RowDigest(const std::vector<beas::Tuple>& rows) {
  uint64_t h = beas::kFnv1a64Seed;
  std::string buf;
  for (const beas::Tuple& row : rows) {
    buf.clear();
    beas::PutTuple(&buf, row);
    h = beas::Fnv1a64(buf, h);
  }
  return h;
}

namespace {

TraceNumbers ReadTrace(const beas::RemotePage& page) {
  TraceNumbers t;
  for (const beas::TraceSpan& span : page.trace_spans) {
    const double us = static_cast<double>(span.dur_us);
    if (span.name == "plan") t.plan_us += us;
    else if (span.name == "plan.chase") { t.chase_us += us; t.has_chase = true; }
    else if (span.name == "plan.chat") { t.chat_us += us; t.has_chat = true; }
    else if (span.name == "fetch") t.fetch_us += us;
    else if (span.name == "dq_build") t.dq_build_us += us;
    else if (span.name == "eval") t.eval_us += us;
    else if (span.name == "stream") t.stream_us += us;
    else if (span.name == "queue_wait") t.queue_wait_us += us;
    else if (span.name == "epoch_wait") t.epoch_wait_us += us;
  }
  for (const auto& [name, value] : page.trace_attrs) {
    if (name == "fetch_ops") t.fetch_ops = value;
    else if (name == "plan_cache_hit") t.plan_cache_hit = value;
    else if (name == "block_cache_hits") t.block_cache_hits = value;
    else if (name == "block_cache_misses") t.block_cache_misses = value;
  }
  return t;
}

// One query over the wire: kQuery, then kFetch until the done page.
QueryRecord RunQuery(beas::NetClient* client, const std::string& sql, double alpha,
                     bool trace, Clock::time_point phase_start) {
  QueryRecord rec;
  beas::NetQueryOptions opts;
  opts.trace = trace;
  std::vector<beas::Tuple> rows;
  const Clock::time_point t0 = Clock::now();
  beas::Result<beas::RemoteCursor> cursor = client->Query(sql, alpha, opts);
  if (!cursor.ok()) {
    rec.error = std::make_unique<std::string>(cursor.status().ToString());
    return rec;
  }
  for (;;) {
    beas::Result<beas::RemotePage> page = client->Fetch(cursor->id);
    if (!page.ok()) {
      rec.error = std::make_unique<std::string>(page.status().ToString());
      return rec;
    }
    if (rec.pages++ == 0) rec.ttfp_ms = MsBetween(t0, Clock::now());
    for (beas::Tuple& row : page->rows) rows.push_back(std::move(row));
    if (page->done) {
      const Clock::time_point done = Clock::now();
      rec.latency_ms = MsBetween(t0, done);
      rec.done_s = static_cast<float>(MsBetween(phase_start, done) / 1000);
      rec.ok = true;
      rec.eta = page->eta;
      rec.d_prime = page->d_prime;
      rec.accessed = page->accessed;
      rec.exact = page->exact;
      rec.epoch = page->epoch;
      rec.server_ms = page->latency_ms;
      if (trace) rec.trace = std::make_unique<TraceNumbers>(ReadTrace(*page));
      break;
    }
  }
  rec.rows = static_cast<uint32_t>(rows.size());
  rec.digest = RowDigest(rows);
  return rec;
}

beas::Status ApplyWrite(beas::QueryService* service, const WriteOp& op) {
  return op.insert ? service->Insert(op.relation, op.row) : service->Remove(op.relation, op.row);
}

}  // namespace

PhaseResult RunPhase(const WorkloadConfig& config, Served* served, StreamCursor* cursor,
                     const PhaseOptions& options) {
  PhaseResult out;
  const beas::BlockCacheStats cache_before = served->beas->store().cache_stats();
  const beas::NetStats net_before = served->server->stats();
  const uint16_t port = served->server->port();
  const QueryStream& stream = *cursor->stream;

  const beas::ServiceStats service_before = served->service->stats();
  std::vector<std::thread> threads;
  out.sessions.resize(config.sessions);
  out.windows = static_cast<size_t>(std::max(1.0, std::round(options.seconds / kWindowTargetS)));
  out.window_s = options.seconds / static_cast<double>(out.windows);
  const Clock::time_point start = Clock::now();
  auto after = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const Clock::time_point end = after(options.seconds);
  for (size_t s = 0; s < config.sessions; ++s) {
    std::vector<QueryRecord>* mine = &out.sessions[s];
    if (options.record) mine->reserve(stream.order.size() / config.sessions + 1);
    threads.emplace_back([&, mine] {
      beas::Result<beas::NetClient> client = beas::NetClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        QueryRecord rec;
        rec.error = std::make_unique<std::string>("connect: " + client.status().ToString());
        mine->push_back(std::move(rec));
        return;
      }
      while (Clock::now() < end) {
        const uint64_t issue = cursor->next.fetch_add(1);
        const uint32_t sql_id = stream.order[issue % stream.order.size()];
        QueryRecord rec =
            RunQuery(&*client, stream.sqls[sql_id], config.alpha, options.trace, start);
        rec.issue = issue;
        rec.sql_id = sql_id;
        if (options.record) mine->push_back(std::move(rec));
      }
    });
  }

  // The open-loop writer: write k is due in the middle of window k,
  // whether or not earlier writes have returned. It stops only between
  // cycles' insert/remove pairs, so each phase ends in the initial state.
  std::thread writer;
  if (options.writes != nullptr && !options.writes->empty() && config.writes) {
    writer = std::thread([&] {
      const std::vector<WriteOp>& ops = *options.writes;
      for (size_t k = 0;; ++k) {
        const Clock::time_point due = after((static_cast<double>(k) + 0.5) * out.window_s);
        const size_t op = *options.next_write % ops.size();
        if (due >= end && op % 2 == 0) break;
        std::this_thread::sleep_until(due);
        WriteRecord rec;
        rec.op = op;
        rec.lag_ms = std::max(0.0, MsBetween(due, Clock::now()));
        rec.ok = ApplyWrite(served->service.get(), ops[op]).ok();
        rec.latency_ms = MsBetween(due, Clock::now());
        rec.epoch_after = served->service->stats().epoch;
        ++*options.next_write;
        out.writes.push_back(rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = SecondsSince(start);
  if (writer.joinable()) writer.join();

  const beas::BlockCacheStats cache_after = served->beas->store().cache_stats();
  const beas::NetStats net_after = served->server->stats();
  out.cache_evictions = cache_after.evictions - cache_before.evictions;
  out.bytes_sent = net_after.bytes_sent - net_before.bytes_sent;
  out.rows_sent = net_after.rows_sent - net_before.rows_sent;
  const beas::ServiceStats service_after = served->service->stats();
  out.cache_hits = service_after.cache_hits - service_before.cache_hits;
  out.cache_misses = service_after.cache_misses - service_before.cache_misses;
  for (const std::vector<QueryRecord>& session : out.sessions) {
    for (const QueryRecord& rec : session) out.queries.push_back(&rec);
  }
  std::sort(out.queries.begin(), out.queries.end(),
            [](const QueryRecord* a, const QueryRecord* b) { return a->issue < b->issue; });
  return out;
}

std::vector<WriteRecord> ReplayWritesThroughService(Served* served,
                                                    const std::vector<WriteOp>& ops) {
  std::vector<WriteRecord> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    WriteRecord rec;
    rec.op = i;
    const Clock::time_point t0 = Clock::now();
    rec.ok = ApplyWrite(served->service.get(), ops[i]).ok();
    rec.latency_ms = MsBetween(t0, Clock::now());
    rec.epoch_after = served->service->stats().epoch;
    out.push_back(rec);
  }
  return out;
}

}  // namespace perfbench
