// Concurrent fixed-size bitset.
//
// Used for per-iteration changed-vertex tracking (hybrid execution) and for
// deduplicating frontier insertion during parallel refinement. Set() is safe
// to call concurrently from multiple threads; resizing is not. A dense sweep
// whose tasks own whole 64-bit words builds each word locally and writes it
// with one StoreWord, with no read-modify-write.
#ifndef SRC_UTIL_BITSET_H_
#define SRC_UTIL_BITSET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphbolt {

class AtomicBitset {
 public:
  AtomicBitset() = default;

  explicit AtomicBitset(size_t size) { Resize(size); }

  // Resizes to hold `size` bits, clearing all bits. Not thread-safe.
  void Resize(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, Word{});
    for (auto& w : words_) {
      w.value.store(0, std::memory_order_relaxed);
    }
  }

  size_t size() const { return size_; }

  // Grows to `new_size` bits, preserving existing bits. Not thread-safe.
  void Grow(size_t new_size) {
    if (new_size <= size_) {
      return;
    }
    size_ = new_size;
    words_.resize((new_size + 63) / 64);
  }

  // Sets bit `i`. Returns true if this call transitioned it from 0 to 1,
  // which lets callers claim exclusive ownership of frontier insertion.
  bool Set(size_t i) {
    const uint64_t mask = 1ULL << (i & 63);
    const uint64_t old =
        words_[i >> 6].value.fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  // Clears bit `i`. Thread-safe with respect to other Set/Clear calls.
  void Clear(size_t i) {
    const uint64_t mask = 1ULL << (i & 63);
    words_[i >> 6].value.fetch_and(~mask, std::memory_order_relaxed);
  }

  bool Test(size_t i) const {
    return (words_[i >> 6].value.load(std::memory_order_relaxed) >>
            (i & 63)) &
           1ULL;
  }

  // Clears every bit. Not thread-safe.
  void ClearAll() {
    for (auto& w : words_) {
      w.value.store(0, std::memory_order_relaxed);
    }
  }

  // Number of set bits (sequential scan).
  size_t Count() const { return CountWords(0, words_.size()); }

  // The backing words: word w holds bits [64w, 64w + 64). Bits at or past
  // size() are always clear.
  size_t num_words() const { return words_.size(); }

  // Word w's bits. StoreWord overwrites the whole word, so its caller must
  // be the word's only writer while it runs, and must leave bits at or past
  // size() clear.
  uint64_t LoadWord(size_t w) const { return words_[w].value.load(std::memory_order_relaxed); }
  void StoreWord(size_t w, uint64_t bits) {
    words_[w].value.store(bits, std::memory_order_relaxed);
  }

  // Number of set bits in words [word_lo, word_hi).
  size_t CountWords(size_t word_lo, size_t word_hi) const {
    size_t count = 0;
    for (size_t w = word_lo; w < word_hi; ++w) {
      count += static_cast<size_t>(__builtin_popcountll(LoadWord(w)));
    }
    return count;
  }

  // Calls fn(i) for every set bit i in words [word_lo, word_hi), in
  // ascending order. One load per word and one step per set bit, so a
  // sparse set costs O(words + members), not a test per bit.
  template <typename Fn>
  void ForEachSetInWords(size_t word_lo, size_t word_hi, Fn&& fn) const {
    for (size_t w = word_lo; w < word_hi; ++w) {
      for (uint64_t bits = LoadWord(w); bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      }
    }
  }

  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    ForEachSetInWords(0, words_.size(), fn);
  }

 private:
  struct Word {
    std::atomic<uint64_t> value{0};
    Word() = default;
    Word(const Word& other) : value(other.value.load(std::memory_order_relaxed)) {}
    Word& operator=(const Word& other) {
      value.store(other.value.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  size_t size_ = 0;
  std::vector<Word> words_;
};

}  // namespace graphbolt

#endif  // SRC_UTIL_BITSET_H_
