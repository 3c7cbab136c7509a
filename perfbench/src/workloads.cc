#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

#include "common/string_util.h"
#include "workload/query_gen.h"
#include "workload/tfacc.h"
#include "workload/tpch.h"

namespace perfbench {

using beas::StrCat;

namespace {

constexpr uint64_t kDataSeed = 20170801;
constexpr double kTpchScale = 0.008;
constexpr int64_t kTfaccAccidents = 20000;
/// Accidents the point_rw writer inserts (and removes again) per cycle;
/// their ids follow the generated ones, and the point read mix asks for
/// them too, so reads see the writes.
constexpr int64_t kWrittenAccidents = 2;
/// Generator seed of the paper mix's queries, and the block within which
/// --seed reorders them.
constexpr uint64_t kPaperQuerySeed = 8;
constexpr size_t kPaperBlock = 100;

const std::vector<WorkloadConfig>& Configs() {
  static const std::vector<WorkloadConfig> configs = {
      {"paper_mix", 0.02, 2, beas::IndexBackendKind::kMemory, 0, false},
      {"bulk_scan", 0.05, 1, beas::IndexBackendKind::kMemory, 0, false},
      // One write per ~3 s window: a block-file write takes 220-270 ms on
      // a 4-vCPU host, so the writer is busy 7-9% of the time.
      {"point_rw", 0.01, 2, beas::IndexBackendKind::kBlockFile, 0.25, true},
  };
  return configs;
}

bool IsTpch(const WorkloadConfig& config) { return config.name == "paper_mix"; }

// Zipf(s) over ranks 1..n by inverse CDF with binary search; ranks map to
// ids through a permutation drawn from \p permutation_seed so hot keys are
// scattered.
class ZipfKeys {
 public:
  ZipfKeys(int64_t n, double s, uint64_t permutation_seed) : ids_(static_cast<size_t>(n)) {
    cdf_.reserve(ids_.size());
    double acc = 0;
    for (int64_t i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(acc);
    }
    for (size_t i = 0; i < ids_.size(); ++i) ids_[i] = static_cast<int64_t>(i);
    std::mt19937_64 rng(permutation_seed);
    std::shuffle(ids_.begin(), ids_.end(), rng);
  }

  int64_t Draw(std::mt19937_64* rng) const {
    std::uniform_real_distribution<double> u(0.0, cdf_.back());
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u(*rng)) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> ids_;
};

// Interns SQL texts so repeated issues share one reference answer.
class StreamBuilder {
 public:
  void Issue(std::string sql) {
    auto it = ids_.find(sql);
    if (it == ids_.end()) {
      it = ids_.emplace(sql, static_cast<uint32_t>(stream_.sqls.size())).first;
      stream_.sqls.push_back(std::move(sql));
    }
    stream_.order.push_back(it->second);
  }
  QueryStream Take() { return std::move(stream_); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  QueryStream stream_;
};

int64_t Pick(std::mt19937_64* rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
}

// Four point templates in turn, keyed on a skewed acc_id: two
// single-relation point selects and two FK joins. Which accidents are hot
// is fixed with the data: hot accidents differ in how many vehicles and
// casualties they have, so a seeded hot set would give each seed a
// differently sized answer mix. --seed drives the draws.
QueryStream PointStream(uint64_t seed, size_t length) {
  std::mt19937_64 rng(seed);
  const ZipfKeys keys(kTfaccAccidents, 1.0, kDataSeed);
  StreamBuilder out;
  for (size_t i = 0; i < length; ++i) {
    // One issue in a hundred asks for an accident the writer adds.
    int64_t k = Pick(&rng, 0, 99) == 0 ? kTfaccAccidents + Pick(&rng, 0, kWrittenAccidents - 1)
                                       : keys.Draw(&rng);
    switch (i % 4) {
      case 0:
        out.Issue(StrCat("select severity, year, speed_limit from accidents where acc_id = ", k));
        break;
      case 1:
        out.Issue(StrCat("select veh_seq, veh_type, driver_age from vehicles where acc_id = ", k));
        break;
      case 2:
        out.Issue(StrCat("select c.cas_seq, c.age from accidents as a, casualties as c "
                         "where a.acc_id = ", k, " and c.acc_id = a.acc_id"));
        break;
      default:
        out.Issue(StrCat("select d.region from accidents as a, districts as d "
                         "where a.acc_id = ", k, " and d.district_id = a.district_id"));
        break;
    }
  }
  return out.Take();
}

// Four templates in turn: non-key selections and an FK join whose
// answers run from a few hundred to a few thousand rows; the naptan
// template is answered exactly.
QueryStream BulkStream(uint64_t seed, size_t length) {
  std::mt19937_64 rng(seed);
  StreamBuilder out;
  for (size_t i = 0; i < length; ++i) {
    switch (i % 4) {
      case 0:
        out.Issue(StrCat("select speed_limit, lat, lon from accidents where year = ",
                         Pick(&rng, 1995, 2005)));
        break;
      case 1:
        out.Issue(StrCat("select driver_age, veh_type from vehicles where driver_age <= ",
                         Pick(&rng, 20, 30)));
        break;
      case 2:
        out.Issue(StrCat("select stop_type, lat, lon from naptan where stop_type = ",
                         Pick(&rng, 1, 4)));
        break;
      default:
        out.Issue(StrCat("select a.speed_limit, v.driver_age from accidents as a, vehicles as v "
                         "where v.acc_id = a.acc_id and a.year = ", Pick(&rng, 1995, 2005)));
        break;
    }
  }
  return out.Take();
}

// The Section 8 mix: QueryGenConfig's defaults are the paper's 3-7
// selections, 0-4 products, 0-3 differences and 30% aggregates. The
// queries come from a fixed generator seed; --seed shuffles them within
// consecutive blocks of kPaperBlock. Per-query cost is heavy-tailed, so a
// seeded generator would give each run a differently priced mix; this way
// every run issues the same queries up to its last block, in another
// order.
QueryStream PaperStream(const beas::Dataset& dataset, uint64_t seed, size_t length) {
  beas::QueryGenConfig cfg;
  cfg.seed = kPaperQuerySeed;
  std::vector<beas::GeneratedQuery> queries =
      beas::GenerateQueries(dataset, static_cast<int>(length), cfg);
  std::mt19937_64 rng(seed);
  for (size_t b = 0; b < queries.size(); b += kPaperBlock) {
    std::shuffle(queries.begin() + static_cast<std::ptrdiff_t>(b),
                 queries.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(queries.size(), b + kPaperBlock)),
                 rng);
  }
  StreamBuilder out;
  for (beas::GeneratedQuery& gq : queries) out.Issue(std::move(gq.sql));
  return out.Take();
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& c : Configs()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::unique_ptr<beas::Dataset> MakeDataset(const WorkloadConfig& config) {
  return std::make_unique<beas::Dataset>(IsTpch(config)
                                             ? beas::MakeTpch(kTpchScale, kDataSeed)
                                             : beas::MakeTfacc(kTfaccAccidents, kDataSeed));
}

QueryStream MakeQueryStream(const WorkloadConfig& config, const beas::Dataset& dataset,
                            uint64_t seed, size_t length) {
  if (IsTpch(config)) return PaperStream(dataset, seed, length);
  if (config.name == "bulk_scan") return BulkStream(seed, length);
  return PointStream(seed, length);
}

std::vector<WriteOp> WriteCycle(const WorkloadConfig& config, const beas::Dataset& dataset) {
  std::vector<WriteOp> cycle;
  if (IsTpch(config)) {
    // Remove one line item and put it back.
    const beas::Tuple& row = (*dataset.db.FindTable("lineitem"))->rows().back();
    cycle.push_back({false, "lineitem", row});
    cycle.push_back({true, "lineitem", row});
    return cycle;
  }
  // Insert a new accident (a copy of an existing one under a fresh id)
  // and remove it again, for each written id in turn.
  const std::vector<beas::Tuple>& accidents = (*dataset.db.FindTable("accidents"))->rows();
  for (int64_t k = 0; k < kWrittenAccidents; ++k) {
    beas::Tuple row = accidents[static_cast<size_t>(k)];
    row[0] = beas::Value(kTfaccAccidents + k);
    cycle.push_back({true, "accidents", row});
    cycle.push_back({false, "accidents", row});
  }
  return cycle;
}

}  // namespace perfbench
