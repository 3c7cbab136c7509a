#include "reference.h"

#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "beas/beas.h"
#include "common/string_util.h"

namespace perfbench {

namespace {

struct Reference {
  bool ok = false;
  std::string error;
  uint64_t rows = 0;
  uint64_t digest = 0;
  double eta = 0;
  double d_prime = 0;
  uint64_t accessed = 0;
  bool exact = false;
  uint64_t budget = 0;
};

using Key = std::pair<uint64_t, uint32_t>;  // (epoch, sql id)

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Computes the references of \p keys (sorted by epoch) on one private
// instance, replaying history writes as the epochs advance.
void ComputeReferences(const WorkloadConfig& config, const QueryStream& stream,
                       const std::vector<WriteOp>& cycle,
                       const std::vector<WriteRecord>& history, uint64_t epoch0,
                       const std::vector<Key>& keys, std::vector<Reference>* out) {
  std::unique_ptr<beas::Dataset> dataset = MakeDataset(config);
  beas::BeasOptions options;
  options.constraints = dataset->constraints;
  auto built = beas::Beas::Build(&dataset->db, options);
  if (!built.ok()) {
    for (Reference& ref : *out) ref.error = "reference build: " + built.status().ToString();
    return;
  }
  beas::Beas& beas = **built;
  size_t applied = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    Reference& ref = (*out)[i];
    while (epoch0 + applied < keys[i].first && applied < history.size()) {
      const WriteOp& op = cycle[history[applied].op];
      beas::Status st = op.insert ? beas.Insert(op.relation, op.row)
                                  : beas.Remove(op.relation, op.row);
      if (!st.ok()) {
        ref.error = "reference write: " + st.ToString();
        return;
      }
      ++applied;
    }
    if (epoch0 + applied != keys[i].first) {
      ref.error = beas::StrCat("no write history reaches epoch ", keys[i].first);
      continue;
    }
    ref.budget = static_cast<uint64_t>(
        std::floor(config.alpha * static_cast<double>(beas.db_size())));
    beas::Result<beas::QueryPtr> q = beas.Parse(stream.sqls[keys[i].second]);
    beas::Result<beas::BeasAnswer> answer =
        q.ok() ? beas.Answer(*q, config.alpha) : beas::Result<beas::BeasAnswer>(q.status());
    if (!answer.ok()) {
      ref.error = answer.status().ToString();
      continue;
    }
    ref.ok = true;
    ref.rows = answer->table.size();
    ref.digest = RowDigest(answer->table.rows());
    ref.eta = answer->eta;
    ref.d_prime = answer->d_prime;
    ref.accessed = answer->accessed;
    ref.exact = answer->exact;
  }
}

std::string Describe(const QueryRecord& rec, const Reference& ref, const QueryStream& stream) {
  return beas::StrCat("epoch ", rec.epoch, " [", stream.sqls[rec.sql_id], "]: wire ",
                      rec.ok ? beas::StrCat("rows=", rec.rows, " eta=", rec.eta,
                                            " accessed=", rec.accessed, " exact=", rec.exact)
                             : *rec.error,
                      " vs reference ",
                      ref.ok ? beas::StrCat("rows=", ref.rows, " eta=", ref.eta,
                                            " accessed=", ref.accessed, " exact=", ref.exact)
                             : ref.error);
}

}  // namespace

CheckResult CheckAnswers(const WorkloadConfig& config, const QueryStream& stream,
                         const std::vector<const QueryRecord*>& records,
                         const std::vector<WriteOp>& cycle,
                         const std::vector<WriteRecord>& history, uint64_t epoch0,
                         size_t threads) {
  CheckResult result;
  for (size_t i = 0; i < history.size(); ++i) {
    if (!history[i].ok || history[i].epoch_after != epoch0 + i + 1) {
      ++result.mismatches;
      result.samples.push_back(beas::StrCat("write ", i, " failed or left epoch ",
                                            history[i].epoch_after, ", expected ",
                                            epoch0 + i + 1));
      break;
    }
  }

  // A failed query that never reached the server has no epoch; it is
  // checked against the initial state.
  std::map<Key, size_t> index;
  for (const QueryRecord* rec : records) {
    index.emplace(Key{rec->ok ? rec->epoch : epoch0, rec->sql_id}, 0);
  }
  threads = std::max<size_t>(1, threads);
  std::vector<std::vector<Key>> shards(threads);
  for (auto& [key, slot] : index) {
    std::vector<Key>& shard = shards[key.second % threads];
    slot = shard.size();
    shard.push_back(key);  // the map iterates in epoch order
  }
  std::vector<std::vector<Reference>> refs(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    refs[t].resize(shards[t].size());
    workers.emplace_back(ComputeReferences, std::cref(config), std::cref(stream),
                         std::cref(cycle), std::cref(history), epoch0, std::cref(shards[t]),
                         &refs[t]);
  }
  for (std::thread& w : workers) w.join();

  for (const QueryRecord* rec : records) {
    const Key key{rec->ok ? rec->epoch : epoch0, rec->sql_id};
    const Reference& ref = refs[key.second % threads][index.at(key)];
    ++result.checked;
    result.budgets.push_back(ref.budget);
    bool match;
    if (rec->ok && ref.ok) {
      match = rec->rows == ref.rows && rec->digest == ref.digest && SameBits(rec->eta, ref.eta) &&
              SameBits(rec->d_prime, ref.d_prime) && rec->accessed == ref.accessed &&
              rec->exact == ref.exact;
    } else {
      match = !rec->ok && !ref.ok && *rec->error == ref.error;
    }
    if (!match) {
      ++result.mismatches;
      if (result.samples.size() < 5) result.samples.push_back(Describe(*rec, ref, stream));
    }
    if (rec->ok && rec->accessed > ref.budget) ++result.budget_overruns;
  }
  return result;
}

}  // namespace perfbench
