#include "compress/dictionary.h"

#include "util/logging.h"

namespace ntadoc::compress {

Dictionary::Dictionary() {
  words_.emplace_back("<file-sep>");  // reserved id 0
}

WordId Dictionary::GetOrAdd(std::string_view word) {
  auto it = index_.find(word);  // heterogeneous: no temporary string
  if (it != index_.end()) return it->second;
  const WordId id = static_cast<WordId>(words_.size());
  words_.emplace_back(word);  // the only materialization, on insert
  index_.emplace(words_.back(), id);
  return id;
}

Result<WordId> Dictionary::Find(std::string_view word) const {
  auto it = index_.find(word);
  if (it == index_.end()) {
    return Status::NotFound("word not in dictionary: " + std::string(word));
  }
  return it->second;
}

const std::string& Dictionary::Spell(WordId id) const {
  NTADOC_CHECK_LT(id, words_.size()) << "word id out of range";
  return words_[id];
}

Status Dictionary::AddWithId(std::string_view word, WordId id) {
  if (id != words_.size()) {
    return Status::InvalidArgument("dictionary ids must be dense/increasing");
  }
  words_.emplace_back(word);
  index_.emplace(words_.back(), id);
  return Status::OK();
}

void Dictionary::Reserve(uint32_t size) {
  words_.reserve(size);
  index_.reserve(size);
}

}  // namespace ntadoc::compress
