#include "compress/format.h"

#include <cstdio>
#include <cstring>

#include "util/hash.h"

namespace ntadoc::compress {
namespace {

constexpr char kMagic[4] = {'N', 'T', 'D', 'C'};
constexpr uint32_t kVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  Status ReadRaw(void* dst, size_t n) {
    if (pos_ + n > bytes_.size()) {
      return Status::DataLoss("container truncated");
    }
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    NTADOC_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    NTADOC_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<std::string> ReadString() {
    NTADOC_ASSIGN_OR_RETURN(const uint32_t len, ReadU32());
    std::string s(len, '\0');
    NTADOC_RETURN_IF_ERROR(ReadRaw(s.data(), len));
    return s;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeCorpus(const CompressedCorpus& corpus) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, corpus.grammar.num_files);
  PutU64(&out, corpus.dict.size());
  PutU64(&out, corpus.grammar.NumRules());
  for (const auto& name : corpus.file_names) PutString(&out, name);
  for (WordId id = kFirstWordId; id < corpus.dict.size(); ++id) {
    PutString(&out, corpus.dict.Spell(id));
  }
  for (const auto& body : corpus.grammar.rules) {
    PutU64(&out, body.size());
    out.append(reinterpret_cast<const char*>(body.data()),
               body.size() * sizeof(Symbol));
  }
  PutU64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<CompressedCorpus> DeserializeCorpus(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t)) {
    return Status::DataLoss("container too small");
  }
  // Checksum first.
  uint64_t stored;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  const uint64_t computed =
      Fnv1a64(bytes.data(), bytes.size() - sizeof(uint64_t));
  if (stored != computed) {
    return Status::DataLoss("container checksum mismatch");
  }

  Reader r(bytes);
  char magic[4];
  NTADOC_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("container magic mismatch");
  }
  NTADOC_ASSIGN_OR_RETURN(const uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss("unsupported container version");
  }
  NTADOC_ASSIGN_OR_RETURN(const uint64_t num_files, r.ReadU64());
  NTADOC_ASSIGN_OR_RETURN(const uint64_t dict_size, r.ReadU64());
  NTADOC_ASSIGN_OR_RETURN(const uint64_t num_rules, r.ReadU64());
  if (dict_size < kFirstWordId) {
    return Status::DataLoss("container dictionary size invalid");
  }

  CompressedCorpus corpus;
  corpus.file_names.reserve(num_files);
  for (uint64_t i = 0; i < num_files; ++i) {
    NTADOC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    corpus.file_names.push_back(std::move(name));
  }
  for (uint64_t id = kFirstWordId; id < dict_size; ++id) {
    NTADOC_ASSIGN_OR_RETURN(const std::string word, r.ReadString());
    NTADOC_RETURN_IF_ERROR(
        corpus.dict.AddWithId(word, static_cast<WordId>(id)));
  }
  corpus.grammar.num_files = static_cast<uint32_t>(num_files);
  corpus.grammar.dict_size = static_cast<uint32_t>(dict_size);
  corpus.grammar.rules.resize(num_rules);
  for (uint64_t i = 0; i < num_rules; ++i) {
    NTADOC_ASSIGN_OR_RETURN(const uint64_t len, r.ReadU64());
    if (len * sizeof(Symbol) > bytes.size()) {
      return Status::DataLoss("rule length corrupt");
    }
    auto& body = corpus.grammar.rules[i];
    body.resize(len);
    NTADOC_RETURN_IF_ERROR(r.ReadRaw(body.data(), len * sizeof(Symbol)));
  }
  NTADOC_RETURN_IF_ERROR(corpus.grammar.Validate());
  return corpus;
}

Status SaveCorpus(const CompressedCorpus& corpus, const std::string& path) {
  const std::string bytes = SerializeCorpus(corpus);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<CompressedCorpus> LoadCorpus(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) return Status::IoError("short read: " + path);
  return DeserializeCorpus(bytes);
}

}  // namespace ntadoc::compress
