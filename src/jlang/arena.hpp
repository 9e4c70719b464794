// The bump-pointer arena a Program's AST lives in.
//
// Every node, child list and node string of a Program is carved out of one
// Arena that the Program owns (DESIGN.md §6), so tearing a Program down
// frees a handful of blocks instead of running a destructor per node,
// string and child vector. Only trivially destructible objects may be
// placed here: the arena never runs destructors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace jepo::jlang {

/// A fixed-size run of T in an arena. Non-owning and trivially copyable:
/// assigning a List rebinds it, it never copies the elements.
template <typename T>
class List {
 public:
  List() = default;
  List(T* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}

  T* begin() const noexcept { return data_; }
  T* end() const noexcept { return data_ + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& front() const noexcept { return data_[0]; }
  T& back() const noexcept { return data_[size_ - 1]; }

 private:
  T* data_ = nullptr;
  std::uint32_t size_ = 0;
};

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Make sure the next `bytes` bytes of allocations fit one block, opening
  /// a block of at least that size if the current one is short.
  void reserve(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - cur_) < bytes) openBlock(bytes);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    std::byte* p = alignUp(cur_, align);
    if (p == nullptr || p > end_ ||
        static_cast<std::size_t>(end_ - p) < bytes) {
      openBlock(bytes + align);
      p = alignUp(cur_, align);
    }
    cur_ = p + bytes;
    return p;
  }

  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Copy `items` into the arena.
  template <typename T>
  List<T> list(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    if (items.empty()) return {};
    T* data = static_cast<T*>(allocate(items.size_bytes(), alignof(T)));
    std::memcpy(data, items.data(), items.size_bytes());
    return {data, items.size()};
  }
  template <typename T>
  List<T> list(List<T> items) {
    return list(std::span<const T>(items.begin(), items.size()));
  }
  template <typename T>
  List<T> list(const std::vector<T>& items) {
    return list(std::span<const T>(items));
  }
  template <typename T>
  List<T> list(std::initializer_list<T> items) {
    return list(std::span<const T>(items.begin(), items.size()));
  }

  /// `n` value-initialized objects of T in the arena.
  template <typename T>
  std::span<T> array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    if (n == 0) return {};
    T* data = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(data, n);
    return {data, n};
  }

  /// Copy `text` into the arena.
  std::string_view copy(std::string_view text) {
    if (text.empty()) return {};
    char* p = static_cast<char*>(allocate(text.size(), 1));
    std::memcpy(p, text.data(), text.size());
    return {p, text.size()};
  }

 private:
  static constexpr std::size_t kMinBlock = 4096;
  static constexpr std::size_t kMaxGrowth = std::size_t{1} << 20;

  static std::byte* alignUp(std::byte* p, std::size_t align) noexcept {
    JEPO_ASSERT(align != 0 && (align & (align - 1)) == 0);
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    return p == nullptr ? nullptr : p + (-addr & (align - 1));
  }

  void openBlock(std::size_t minBytes) {
    // Blocks double (up to kMaxGrowth) so a growing AST opens O(log n) of
    // them; a request larger than that gets a block of its own size.
    const std::size_t size = std::max(minBytes, nextBlock_);
    nextBlock_ = std::min(2 * std::max(size, nextBlock_), kMaxGrowth);
    blocks_.emplace_back(new std::byte[size]);
    cur_ = blocks_.back().get();
    end_ = cur_ + size;
  }

  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t nextBlock_ = kMinBlock;
};

}  // namespace jepo::jlang
