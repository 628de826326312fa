// Hostile-header regression tests for the model decoders. A header's layer
// widths must be checked — overflow-checked parameter sum, declared count,
// bytes left, and for deltas the reference architecture — before any layer
// is built from them. This binary replaces global operator new with a
// counting version (off except inside a Measure window) and asserts that
// each hostile input is rejected with a Status and that no single
// allocation made while decoding it is larger than the input itself. A
// header-sized allocation here would be 2^33 bytes or more.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "qens/ml/model_codec.h"
#include "qens/ml/sequential_model.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    uint64_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Out of line so the compiler does not pair an inlined free() with a
// new-expression and warn about a mismatch that the replacement makes valid.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qens::ml {
namespace {

struct Allocations {
  uint64_t bytes = 0;    ///< Sum of every request.
  uint64_t largest = 0;  ///< The largest single request.
};

/// Heap bytes requested by `fn`.
template <typename Fn>
Allocations Measure(Fn&& fn) {
  g_bytes.store(0, std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return {g_bytes.load(std::memory_order_relaxed),
          g_largest.load(std::memory_order_relaxed)};
}

/// Decode `input` with `decode`, expecting InvalidArgument and no request
/// above the input's size (+1: a copy of the input into a std::string
/// carries a terminator).
template <typename Decode>
void ExpectRejectedWithoutLargeAllocation(const std::string& input,
                                          Decode&& decode) {
  Status status;
  const Allocations a = Measure([&] { status = decode(input); });
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_LE(a.largest, input.size() + 1)
      << "total " << a.bytes << " for an input of " << input.size();
}

Status DecodeQenw(const std::string& bytes) {
  return DecodeModel(bytes).status();
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

struct Spec {
  uint32_t in;
  uint32_t out;
};

/// A QENW v1 header (relu layers) with the declared parameter count,
/// followed by `payload` zero bytes.
std::string QenwMessage(uint8_t codec, bool delta,
                        std::initializer_list<Spec> layers,
                        uint64_t param_count, size_t payload) {
  std::string bytes = "QENW";
  bytes.push_back(1);  // Version, little-endian u16.
  bytes.push_back(0);
  bytes.push_back(static_cast<char>(codec));
  bytes.push_back(delta ? 1 : 0);
  PutU32(&bytes, static_cast<uint32_t>(layers.size()));
  for (const Spec& s : layers) {
    PutU32(&bytes, s.in);
    PutU32(&bytes, s.out);
    bytes.push_back(static_cast<char>(Activation::kRelu));
  }
  PutU64(&bytes, param_count);
  bytes.append(payload, '\0');
  return bytes;
}

constexpr uint32_t k2Pow31 = uint32_t{1} << 31;
constexpr uint32_t kMaxU32 = 0xffffffffu;
constexpr uint64_t k2Pow62 = uint64_t{1} << 62;

TEST(DecoderAllocTest, CounterSeesAllocations) {
  // Guards the hook itself: a small total below must mean "allocated
  // little", not "the counter is not wired".
  const Allocations a = Measure([] {
    std::string s(1000, 'x');
    EXPECT_EQ(s.size(), 1000u);
  });
  EXPECT_GE(a.largest, 1000u);
  EXPECT_GE(a.bytes, 1000u);
}

TEST(DecoderAllocTest, QenwHugeLayerIsRejectedBeforeAllocating) {
  // One 2^31 x 2^31 layer with its true parameter count (2^62 + 2^31): the
  // header is self-consistent, only the bytes left give it away.
  for (uint8_t codec : {uint8_t{0}, uint8_t{1}, uint8_t{3}}) {  // raw, q8, q2
    SCOPED_TRACE(int{codec});
    ExpectRejectedWithoutLargeAllocation(
        QenwMessage(codec, false, {{k2Pow31, k2Pow31}}, k2Pow62 + k2Pow31,
                    256),
        DecodeQenw);
  }
  // The same layer declaring a small count fails the count check.
  ExpectRejectedWithoutLargeAllocation(
      QenwMessage(0, false, {{k2Pow31, k2Pow31}}, 2, 256), DecodeQenw);
}

TEST(DecoderAllocTest, QenwChainedOverflowIsRejectedBeforeAllocating) {
  // (2^32-1)^2 + (2^32-1) = 2^64 - 2^32, then (2^32-1)*1 + 1 = 2^32, then
  // 1*1 + 1 = 2: the sum wraps to exactly 2, which the header declares.
  // Only an overflow-checked sum sees it; the payload after the 2 raw
  // values is padding that no decoder gets to.
  ExpectRejectedWithoutLargeAllocation(
      QenwMessage(0, false, {{kMaxU32, kMaxU32}, {kMaxU32, 1}, {1, 1}}, 2,
                  256),
      DecodeQenw);
}

TEST(DecoderAllocTest, QenwTopKDeltaIsBoundedByTheReference) {
  // A top-k delta needs only its count word, so the reference architecture
  // is what bounds it: a huge header is rejected against a small reference.
  SequentialModel reference;
  ASSERT_TRUE(reference.AddLayer(4, 1, Activation::kRelu).ok());
  ExpectRejectedWithoutLargeAllocation(
      QenwMessage(4, true, {{k2Pow31, k2Pow31}}, k2Pow62 + k2Pow31, 256),
      [&](const std::string& bytes) {
        return DecodeModelDelta(bytes, reference).status();
      });
}

}  // namespace
}  // namespace qens::ml
