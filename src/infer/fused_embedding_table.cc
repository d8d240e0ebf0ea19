#include "infer/fused_embedding_table.h"

#include <cstring>
#include <utility>

#include "baselines/kgc_model.h"
#include "common/io.h"
#include "common/logging.h"

namespace came::infer {

namespace {

// File layout (version 1, little-endian):
//   magic   8 bytes "CAMEFET1"
//   version u32
//   count   u32                     -- number of sections (4, or 5 in
//                                      older files)
//   sections, each:
//     id    u32 fourcc              -- META, CAND, BIAS, FOLD [, BNDS]
//     len   u64                     -- payload byte length
//     crc   u32                     -- CRC32 of the payload
//     payload
// Absent bias / folded rows are encoded as empty ({0}) tensors so the
// section framing is fixed shape. Files from before the bounds moved into
// the serving store carry a trailing BNDS section (panel-pruning bounds);
// it is still CRC-checked, then ignored. Saves write 4 sections.
constexpr char kMagic[8] = {'C', 'A', 'M', 'E', 'F', 'E', 'T', '1'};
constexpr uint32_t kVersion = 1;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kSectionMeta = FourCc('M', 'E', 'T', 'A');
constexpr uint32_t kSectionCandidates = FourCc('C', 'A', 'N', 'D');
constexpr uint32_t kSectionBias = FourCc('B', 'I', 'A', 'S');
constexpr uint32_t kSectionFolded = FourCc('F', 'O', 'L', 'D');
constexpr uint32_t kSectionBounds = FourCc('B', 'N', 'D', 'S');

constexpr uint64_t kMaxSectionBytes = 1ULL << 33;  // 8 GiB
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxNdim = 8;

template <typename T>
void AppendPod(std::string* buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendTensor(std::string* buf, const tensor::Tensor& t) {
  AppendPod(buf, static_cast<uint32_t>(t.ndim()));
  for (int64_t d : t.shape()) AppendPod(buf, d);
  buf->append(reinterpret_cast<const char*>(t.data()),
              static_cast<size_t>(t.numel()) * sizeof(float));
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Status ReadRaw(void* out, size_t n) {
    if (n > size_ - pos_) {
      return Status::Corruption("fused table truncated at byte " +
                                std::to_string(pos_));
    }
    // Empty tensors have a null data(); memcpy must not see it.
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(T));
  }

  Status ReadTensor(tensor::Tensor* out) {
    uint32_t ndim = 0;
    CAME_RETURN_IF_ERROR(ReadPod(&ndim));
    if (ndim > kMaxNdim) {
      return Status::Corruption("tensor ndim out of range: " +
                                std::to_string(ndim));
    }
    tensor::Shape shape(ndim);
    for (auto& d : shape) {
      CAME_RETURN_IF_ERROR(ReadPod(&d));
      if (d < 0 || static_cast<uint64_t>(d) > kMaxSectionBytes) {
        return Status::Corruption("tensor dimension out of range");
      }
    }
    const int64_t numel = tensor::NumElements(shape);
    if (numel < 0 ||
        static_cast<uint64_t>(numel) * sizeof(float) > remaining()) {
      return Status::Corruption("tensor data exceeds section");
    }
    tensor::Tensor t(std::move(shape));
    CAME_RETURN_IF_ERROR(
        ReadRaw(t.data(), static_cast<size_t>(numel) * sizeof(float)));
    *out = std::move(t);
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendSection(std::string* file, uint32_t id, const std::string& payload) {
  AppendPod(file, id);
  AppendPod(file, static_cast<uint64_t>(payload.size()));
  AppendPod(file, io::Crc32(payload.data(), payload.size()));
  file->append(payload);
}

std::string EncodeTensorSection(const tensor::Tensor& t) {
  std::string buf;
  AppendTensor(&buf, t);
  return buf;
}

Status DecodeTensorSection(Reader* r, tensor::Tensor* out) {
  CAME_RETURN_IF_ERROR(r->ReadTensor(out));
  if (r->remaining() != 0) {
    return Status::Corruption("trailing bytes in tensor section");
  }
  return Status::OK();
}

}  // namespace

FusedEmbeddingTable::FusedEmbeddingTable(std::string model_name,
                                         tensor::Tensor candidates,
                                         tensor::Tensor bias,
                                         tensor::Tensor folded_rows)
    : model_name_(std::move(model_name)),
      candidates_(std::move(candidates)),
      bias_(std::move(bias)),
      folded_rows_(std::move(folded_rows)) {
  CAME_CHECK_EQ(candidates_.ndim(), 2) << "candidates must be [N, d]";
  if (bias_.numel() > 0) {
    CAME_CHECK_EQ(bias_.ndim(), 1);
    CAME_CHECK_EQ(bias_.dim(0), candidates_.dim(0));
  }
  if (folded_rows_.numel() > 0) {
    CAME_CHECK_EQ(folded_rows_.ndim(), 2);
    CAME_CHECK_EQ(folded_rows_.dim(0), candidates_.dim(0));
  }
}

FusedEmbeddingTable FusedEmbeddingTable::Build(
    baselines::InnerProductKgcModel* model) {
  CAME_CHECK(model != nullptr);
  CAME_CHECK(!model->training()) << "Build requires eval mode";
  // Clone the candidate matrix: the table is a frozen snapshot, and the
  // serving accessor aliases the live parameter buffer.
  return FusedEmbeddingTable(model->Name(),
                             model->ServingCandidates().Clone(),
                             model->ServingEntityBias().Clone(),
                             model->FoldEntityEncoders());
}

Status FusedEmbeddingTable::Save(const std::string& path) const {
  std::string meta;
  AppendPod(&meta, static_cast<uint32_t>(model_name_.size()));
  meta.append(model_name_);
  AppendPod(&meta, static_cast<int64_t>(num_entities()));
  AppendPod(&meta, static_cast<int64_t>(dim()));

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendPod(&file, kVersion);
  AppendPod(&file, uint32_t{4});
  AppendSection(&file, kSectionMeta, meta);
  AppendSection(&file, kSectionCandidates, EncodeTensorSection(candidates_));
  AppendSection(&file, kSectionBias, EncodeTensorSection(bias_));
  AppendSection(&file, kSectionFolded, EncodeTensorSection(folded_rows_));
  return io::WriteFileAtomic(path, file.data(), file.size());
}

Status FusedEmbeddingTable::Load(const std::string& path,
                                 FusedEmbeddingTable* out) {
  CAME_CHECK(out != nullptr);
  std::string file;
  CAME_RETURN_IF_ERROR(io::ReadFile(path, &file));
  Reader r(file.data(), file.size());

  char magic[8];
  CAME_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": not a fused table (bad magic)");
  }
  uint32_t version = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&version));
  if (version != kVersion) {
    // Version 2 was a quantized container; quantization now happens at
    // serve time (ScoreServerConfig::dtype), so only fp32 tables load.
    return Status::InvalidArgument(path + ": unsupported fused table version " +
                                   std::to_string(version) +
                                   " (this build reads version 1)");
  }
  uint32_t section_count = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&section_count));
  if (section_count != 4 && section_count != 5) {
    return Status::Corruption(path + ": expected 4 or 5 sections, found " +
                              std::to_string(section_count));
  }

  std::string model_name;
  int64_t meta_n = 0;
  int64_t meta_d = 0;
  tensor::Tensor candidates;
  tensor::Tensor bias;
  tensor::Tensor folded;

  constexpr uint32_t kExpectedOrder[5] = {kSectionMeta, kSectionCandidates,
                                          kSectionBias, kSectionFolded,
                                          kSectionBounds};
  for (uint32_t idx = 0; idx < section_count; ++idx) {
    uint32_t id = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    CAME_RETURN_IF_ERROR(r.ReadPod(&id));
    CAME_RETURN_IF_ERROR(r.ReadPod(&len));
    CAME_RETURN_IF_ERROR(r.ReadPod(&crc));
    if (id != kExpectedOrder[idx]) {
      return Status::Corruption(path + ": unexpected section id at index " +
                                std::to_string(idx));
    }
    if (len > kMaxSectionBytes || len > r.remaining()) {
      return Status::Corruption(path + ": section length out of range");
    }
    std::string payload(len, 0);
    CAME_RETURN_IF_ERROR(r.ReadRaw(payload.data(), len));
    if (io::Crc32(payload.data(), payload.size()) != crc) {
      return Status::Corruption(path + ": CRC mismatch in section " +
                                std::to_string(idx));
    }
    Reader pr(payload.data(), payload.size());
    switch (id) {
      case kSectionMeta: {
        uint32_t name_len = 0;
        CAME_RETURN_IF_ERROR(pr.ReadPod(&name_len));
        if (name_len > kMaxNameLen) {
          return Status::Corruption("model name length out of range");
        }
        model_name.assign(name_len, 0);
        CAME_RETURN_IF_ERROR(pr.ReadRaw(model_name.data(), name_len));
        CAME_RETURN_IF_ERROR(pr.ReadPod(&meta_n));
        CAME_RETURN_IF_ERROR(pr.ReadPod(&meta_d));
        if (pr.remaining() != 0) {
          return Status::Corruption("trailing bytes in meta section");
        }
        break;
      }
      case kSectionCandidates:
        CAME_RETURN_IF_ERROR(DecodeTensorSection(&pr, &candidates));
        break;
      case kSectionBias:
        CAME_RETURN_IF_ERROR(DecodeTensorSection(&pr, &bias));
        break;
      case kSectionFolded:
        CAME_RETURN_IF_ERROR(DecodeTensorSection(&pr, &folded));
        break;
      case kSectionBounds:
        break;  // legacy panel bounds: CRC-checked above, then ignored
      default:
        return Status::Corruption("unreachable section id");
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption(path + ": trailing bytes after last section");
  }

  // Cross-section validation: the meta header must agree with the tensors.
  if (candidates.ndim() != 2) {
    return Status::Corruption(path + ": candidates must be rank 2");
  }
  if (candidates.dim(0) != meta_n || candidates.dim(1) != meta_d) {
    return Status::Corruption(path + ": meta/candidate shape mismatch");
  }
  if (bias.numel() > 0 &&
      (bias.ndim() != 1 || bias.dim(0) != candidates.dim(0))) {
    return Status::Corruption(path + ": bias shape mismatch");
  }
  if (folded.numel() > 0 &&
      (folded.ndim() != 2 || folded.dim(0) != candidates.dim(0))) {
    return Status::Corruption(path + ": folded rows shape mismatch");
  }

  *out = FusedEmbeddingTable(std::move(model_name), std::move(candidates),
                             std::move(bias), std::move(folded));
  return Status::OK();
}

void FusedEmbeddingTable::InstallFoldedRows(baselines::KgcModel* model) const {
  CAME_CHECK(model != nullptr);
  if (!has_folded_rows()) return;
  model->SetFoldedEncoderCache(folded_rows_.Clone());
}

}  // namespace came::infer
