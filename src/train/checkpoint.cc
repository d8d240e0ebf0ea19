#include "train/checkpoint.h"

#include "common/io.h"
#include "common/logging.h"

namespace came::train {

namespace {

// A checkpoint is one io binary container (common/io.h): magic
// "CAMECKP1", version 1, four sections in this order.
constexpr uint32_t kSections[] = {io::FourCc("MODL"), io::FourCc("OPTM"),
                                  io::FourCc("RNGS"), io::FourCc("TRNR")};
constexpr io::ContainerFormat kFormat{"checkpoint", "CAMECKP1", 1, kSections};

// Structural sanity bounds: generous for any real model, tight enough
// that a bit-flipped count cannot drive a huge allocation.
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxNdim = 8;
constexpr uint64_t kMaxTensors = 1ULL << 20;

// --- tensor encoding: u32 ndim, i64 dims[], f32 data[] ----------------------

void PutTensor(io::ByteWriter* w, const tensor::Tensor& t) {
  w->Put(static_cast<uint32_t>(t.ndim()));
  for (int64_t d : t.shape()) w->Put(d);
  w->PutBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

Status GetTensor(io::ByteReader* r, tensor::Tensor* out) {
  uint32_t ndim = 0;
  CAME_RETURN_IF_ERROR(r->Get(&ndim));
  if (ndim > kMaxNdim) {
    return Status::Corruption("tensor ndim out of range: " +
                              std::to_string(ndim));
  }
  // Bound the element count by the bytes left as it grows, so no shape
  // can overflow it or outrun the section.
  const uint64_t max_numel = r->remaining() / sizeof(float);
  uint64_t numel = 1;
  tensor::Shape shape(ndim);
  for (auto& d : shape) {
    CAME_RETURN_IF_ERROR(r->Get(&d));
    const uint64_t ud = static_cast<uint64_t>(d);
    if (d < 0 || (ud > 0 && numel > max_numel / ud)) {
      return Status::Corruption("tensor data exceeds section");
    }
    numel *= ud;
  }
  tensor::Tensor t(std::move(shape));
  CAME_RETURN_IF_ERROR(
      r->GetBytes(t.data(), static_cast<size_t>(numel) * sizeof(float)));
  *out = std::move(t);
  return Status::OK();
}

// --- section payloads ----------------------------------------------------

void EncodeModelSection(const CheckpointState& s, io::ByteWriter* w) {
  w->Put(static_cast<uint64_t>(s.params.size()));
  for (const auto& [name, t] : s.params) {
    w->Put(static_cast<uint32_t>(name.size()));
    w->PutBytes(name.data(), name.size());
    PutTensor(w, t);
  }
}

Status DecodeModelSection(io::ByteReader* r, CheckpointState* s) {
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->Get(&count));
  if (count > kMaxTensors) {
    return Status::Corruption("parameter count out of range");
  }
  s->params.clear();
  s->params.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    CAME_RETURN_IF_ERROR(r->Get(&name_len));
    if (name_len > kMaxNameLen) {
      return Status::Corruption("parameter name length out of range");
    }
    std::string name(name_len, 0);
    CAME_RETURN_IF_ERROR(r->GetBytes(name.data(), name_len));
    tensor::Tensor t;
    CAME_RETURN_IF_ERROR(GetTensor(r, &t));
    s->params.emplace_back(std::move(name), std::move(t));
  }
  return Status::OK();
}

void EncodeOptimSection(const CheckpointState& s, io::ByteWriter* w) {
  w->Put(s.adam_step);
  w->Put(static_cast<uint64_t>(s.adam_m.size()));
  for (const auto& t : s.adam_m) PutTensor(w, t);
  for (const auto& t : s.adam_v) PutTensor(w, t);
}

Status DecodeOptimSection(io::ByteReader* r, CheckpointState* s) {
  CAME_RETURN_IF_ERROR(r->Get(&s->adam_step));
  if (s->adam_step < 0) {
    return Status::Corruption("negative Adam step count");
  }
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->Get(&count));
  if (count > kMaxTensors) {
    return Status::Corruption("Adam moment count out of range");
  }
  s->adam_m.assign(count, tensor::Tensor());
  s->adam_v.assign(count, tensor::Tensor());
  for (auto& t : s->adam_m) CAME_RETURN_IF_ERROR(GetTensor(r, &t));
  for (auto& t : s->adam_v) CAME_RETURN_IF_ERROR(GetTensor(r, &t));
  return Status::OK();
}

void EncodeRngSection(const CheckpointState& s, io::ByteWriter* w) {
  w->Put(static_cast<uint64_t>(s.rng_streams.size()));
  for (const Rng::State& st : s.rng_streams) {
    for (uint64_t word : st.s) w->Put(word);
    w->Put(static_cast<uint8_t>(st.has_cached_normal ? 1 : 0));
    w->Put(st.cached_normal);
  }
}

Status DecodeRngSection(io::ByteReader* r, CheckpointState* s) {
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->Get(&count));
  if (count > 1024) {
    return Status::Corruption("rng stream count out of range");
  }
  s->rng_streams.assign(count, Rng::State{});
  for (Rng::State& st : s->rng_streams) {
    for (uint64_t& word : st.s) CAME_RETURN_IF_ERROR(r->Get(&word));
    uint8_t flag = 0;
    CAME_RETURN_IF_ERROR(r->Get(&flag));
    if (flag > 1) return Status::Corruption("bad rng cache flag");
    st.has_cached_normal = flag == 1;
    CAME_RETURN_IF_ERROR(r->Get(&st.cached_normal));
  }
  return Status::OK();
}

void EncodeTrainerSection(const CheckpointState& s, io::ByteWriter* w) {
  w->Put(s.epochs_run);
  w->Put(static_cast<uint8_t>(s.has_best ? 1 : 0));
  w->Put(s.best.rank_sum);
  w->Put(s.best.reciprocal_sum);
  w->Put(s.best.hits1);
  w->Put(s.best.hits3);
  w->Put(s.best.hits10);
  w->Put(s.best.count);
  w->Put(static_cast<uint64_t>(s.best_snapshot.size()));
  for (const auto& t : s.best_snapshot) PutTensor(w, t);
}

Status DecodeTrainerSection(io::ByteReader* r, CheckpointState* s) {
  CAME_RETURN_IF_ERROR(r->Get(&s->epochs_run));
  if (s->epochs_run < 0) {
    return Status::Corruption("negative epoch counter");
  }
  uint8_t has_best = 0;
  CAME_RETURN_IF_ERROR(r->Get(&has_best));
  if (has_best > 1) return Status::Corruption("bad has_best flag");
  s->has_best = has_best == 1;
  CAME_RETURN_IF_ERROR(r->Get(&s->best.rank_sum));
  CAME_RETURN_IF_ERROR(r->Get(&s->best.reciprocal_sum));
  CAME_RETURN_IF_ERROR(r->Get(&s->best.hits1));
  CAME_RETURN_IF_ERROR(r->Get(&s->best.hits3));
  CAME_RETURN_IF_ERROR(r->Get(&s->best.hits10));
  CAME_RETURN_IF_ERROR(r->Get(&s->best.count));
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->Get(&count));
  if (count > kMaxTensors) {
    return Status::Corruption("snapshot tensor count out of range");
  }
  s->best_snapshot.assign(count, tensor::Tensor());
  for (auto& t : s->best_snapshot) CAME_RETURN_IF_ERROR(GetTensor(r, &t));
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(const std::string& path, const CheckpointState& state) {
  using Encoder = void (*)(const CheckpointState&, io::ByteWriter*);
  static constexpr Encoder kEncoders[] = {
      EncodeModelSection, EncodeOptimSection, EncodeRngSection,
      EncodeTrainerSection};
  return io::WriteContainer(path, kFormat, [&](size_t i, io::ByteWriter* w) {
    kEncoders[i](state, w);
  });
}

Status ReadCheckpoint(const std::string& path, CheckpointState* out) {
  CAME_CHECK(out != nullptr);
  using Decoder = Status (*)(io::ByteReader*, CheckpointState*);
  static constexpr Decoder kDecoders[] = {
      DecodeModelSection, DecodeOptimSection, DecodeRngSection,
      DecodeTrainerSection};
  return io::ReadContainer(path, kFormat, [out](size_t i, io::ByteReader* r) {
    return kDecoders[i](r, out);
  });
}

}  // namespace came::train
