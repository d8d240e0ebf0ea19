#include "kg/dataset.h"

#include <cstdint>

#include "common/logging.h"
#include "kg/kg_files.h"

namespace came::kg {

std::vector<Triple> Dataset::TrainWithInverses() const {
  const int64_t offset = num_relations();
  std::vector<Triple> out;
  out.reserve(train.size() * 2);
  for (const Triple& t : train) {
    out.push_back(t);
    out.push_back({t.tail, t.rel + offset, t.head});
  }
  return out;
}

std::vector<Triple> Dataset::AllTriples() const {
  std::vector<Triple> out;
  out.reserve(train.size() + valid.size() + test.size());
  out.insert(out.end(), train.begin(), train.end());
  out.insert(out.end(), valid.begin(), valid.end());
  out.insert(out.end(), test.begin(), test.end());
  return out;
}

namespace {

constexpr int64_t kNumEntityTypes = static_cast<int64_t>(EntityType::kOther) + 1;

Status WriteTriples(const std::string& path,
                    const std::vector<Triple>& triples) {
  TsvWriter out;
  CAME_RETURN_IF_ERROR(out.Open(path));
  for (const Triple& t : triples) out.TripleRow(t.head, t.rel, t.tail);
  return out.Close();
}

Status ReadTriples(const std::string& path, int64_t num_entities,
                   int64_t num_relations, std::vector<Triple>* triples) {
  TsvReader in;
  CAME_RETURN_IF_ERROR(in.Open(path));
  Triple t;
  while (true) {
    Result<bool> got = in.NextTriple(num_entities, num_relations, &t);
    if (!got.ok()) return got.status();
    if (!got.value()) return Status::OK();
    triples->push_back(t);
  }
}

// Reads entities.tsv ("id \t name \t type") or relations.tsv
// ("id \t name") into `vocab`: ids dense from 0, names non-empty and
// unique.
Status ReadVocab(const std::string& path, bool entities, Vocab* vocab) {
  const char* what = entities ? "entity" : "relation";
  TsvReader in;
  CAME_RETURN_IF_ERROR(in.Open(path));
  while (true) {
    Result<bool> got = in.Next(entities ? 3 : 2);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    Result<int64_t> id = in.Id(0, INT64_MAX, entities ? "entity id"
                                                      : "relation id");
    if (!id.ok()) return id.status();
    const std::string name(in.field(1));
    if (name.empty()) {
      return in.Malformed(std::string("empty ") + what + " name");
    }
    Result<int64_t> type = entities ? in.Id(2, kNumEntityTypes, "entity type")
                                    : Result<int64_t>(int64_t{0});
    if (!type.ok()) return type.status();
    if ((entities ? vocab->EntityId(name) : vocab->RelationId(name)) >= 0) {
      return in.Malformed(std::string("duplicate ") + what + " name \"" +
                          name + "\"");
    }
    const int64_t added =
        entities ? vocab->AddEntity(name, static_cast<EntityType>(type.value()))
                 : vocab->AddRelation(name);
    if (added != id.value()) {
      return in.Malformed(std::string("non-dense ") + what +
                          " ids (expected " + std::to_string(added) +
                          ", file says " + std::to_string(id.value()) + ")");
    }
  }
  if ((entities ? vocab->num_entities() : vocab->num_relations()) == 0) {
    return Status::Corruption(path + (entities ? ": no entities"
                                               : ": no relations"));
  }
  return Status::OK();
}

}  // namespace

Status Dataset::SaveTsv(const std::string& dir) const {
  {
    TsvWriter out;
    CAME_RETURN_IF_ERROR(out.Open(KgPath(dir, kEntitiesFile)));
    for (int64_t i = 0; i < vocab.num_entities(); ++i) {
      out.EntityRow(i, vocab.EntityName(i), vocab.entity_type(i));
    }
    CAME_RETURN_IF_ERROR(out.Close());
  }
  {
    TsvWriter out;
    CAME_RETURN_IF_ERROR(out.Open(KgPath(dir, kRelationsFile)));
    for (int64_t i = 0; i < vocab.num_relations(); ++i) {
      out.RelationRow(i, vocab.RelationName(i));
    }
    CAME_RETURN_IF_ERROR(out.Close());
  }
  CAME_RETURN_IF_ERROR(WriteTriples(KgPath(dir, kTrainFile), train));
  CAME_RETURN_IF_ERROR(WriteTriples(KgPath(dir, kValidFile), valid));
  return WriteTriples(KgPath(dir, kTestFile), test);
}

Result<Dataset> Dataset::LoadTsv(const std::string& dir,
                                 const std::string& name) {
  Dataset ds;
  ds.name = name;
  CAME_RETURN_IF_ERROR(
      ReadVocab(KgPath(dir, kEntitiesFile), /*entities=*/true, &ds.vocab));
  CAME_RETURN_IF_ERROR(
      ReadVocab(KgPath(dir, kRelationsFile), /*entities=*/false, &ds.vocab));
  const int64_t ne = ds.vocab.num_entities();
  const int64_t nr = ds.vocab.num_relations();
  CAME_RETURN_IF_ERROR(ReadTriples(KgPath(dir, kTrainFile), ne, nr, &ds.train));
  CAME_RETURN_IF_ERROR(ReadTriples(KgPath(dir, kValidFile), ne, nr, &ds.valid));
  CAME_RETURN_IF_ERROR(ReadTriples(KgPath(dir, kTestFile), ne, nr, &ds.test));
  return ds;
}

void SplitTriples(std::vector<Triple> triples, Rng* rng,
                  std::vector<Triple>* train, std::vector<Triple>* valid,
                  std::vector<Triple>* test, double train_frac,
                  double valid_frac) {
  CAME_CHECK(rng != nullptr);
  CAME_CHECK_GT(train_frac, 0.0);
  CAME_CHECK_LE(train_frac + valid_frac, 1.0);
  rng->Shuffle(&triples);
  const auto n = static_cast<int64_t>(triples.size());
  const auto n_train = static_cast<int64_t>(train_frac * n);
  const auto n_valid = static_cast<int64_t>(valid_frac * n);
  train->assign(triples.begin(), triples.begin() + n_train);
  valid->assign(triples.begin() + n_train,
                triples.begin() + n_train + n_valid);
  test->assign(triples.begin() + n_train + n_valid, triples.end());
}

}  // namespace came::kg
