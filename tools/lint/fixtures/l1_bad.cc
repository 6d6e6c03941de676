// L1 negative fixture: every shape of borrowed-span escape must fire.
// Linted as if it lived under src/ (the test passes a synthetic path).

#include <cstdint>

struct FakeDevice {
  const uint8_t* TryReadSpan(uint64_t off, uint64_t len);
  void WriteBytes(uint64_t off, const void* src, uint64_t len);
  void LoadSnapshot(const void* image, uint64_t offset);
};

struct Holder {
  const uint8_t* span_;

  void StoreInMember(FakeDevice* dev) {
    span_ = dev->TryReadSpan(0, 16);  // finding: member store
  }
};

const uint8_t* g_stale;

void StoreInStatic(FakeDevice* dev) {
  static const uint8_t* cached = dev->TryReadSpan(0, 16);  // finding: static
  g_stale = cached;
}

uint8_t UseAfterMutate(FakeDevice* dev) {
  auto span = dev->TryReadSpan(0, 16);
  dev->WriteBytes(64, nullptr, 8);
  return span[0];  // finding: use after WriteBytes invalidated the borrow
}

uint8_t UseAfterRegionLoad(FakeDevice* dev) {
  auto span = dev->TryReadSpan(0, 16);
  dev->LoadSnapshot(nullptr, 4096);
  return span[0];  // finding: a region load replaced the media under it
}
