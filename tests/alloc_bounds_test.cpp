// Allocation bounds for the cache-miss path. A counting global operator
// new tallies the heap allocations made while parsing, resolving,
// optimizing and printing one fixed corpus program. The counts depend
// only on the code and the input, so a regression shows as a count, not a
// timing.
//
// Printing appends to one buffer reserved from the unit's source size;
// parsing allocates the arena block, the token vector and the declaration
// vectors, and builds no string per token or per node. Resolving writes
// its tables into the Program's arena; optimizing keeps its per-name facts
// in flat vectors it reuses across methods.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "corpus/corpus.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace jepo::jlang {
namespace {

/// Allocations `fn` makes.
template <typename Fn>
std::size_t allocationsOf(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

/// The fixed input: the first unit of the J48 corpus at scale 0.03, seed
/// 42 (a few KB of generated MiniJava with fields, loops and calls).
const std::string& fixedSource() {
  static const std::string source = [] {
    const Program corpus = corpus::generateScaledCorpus(
        ml::ClassifierKind::kJ48, 0.03, 42, nullptr);
    return std::string(corpus.units.front().source);
  }();
  return source;
}

TEST(AllocBounds, CountingSeesAllocations) {
  EXPECT_EQ(allocationsOf([] {
              int* volatile p = new int(1);
              delete p;
            }),
            1u);
}

TEST(AllocBounds, ParseStaysWithinItsCount) {
  const std::string& source = fixedSource();
  ASSERT_GT(source.size(), 2000u);
  Program program;
  const std::size_t n = allocationsOf(
      [&] { program = Parser::parseProgram("J48.mjava", source); });
  // 35 at the time of writing, down from 157 when the parser built a
  // std::string per expected token; none is made per token, node or
  // parameter list.
  EXPECT_LE(n, 35u);
}

TEST(AllocBounds, ResolveStaysWithinItsCount) {
  const Program program = Parser::parseProgram("J48.mjava", fixedSource());
  const std::size_t n = allocationsOf([&] { ensureResolved(program); });
  // 3 at the time of writing, down from 158 when every scope, name and
  // layout was a vector, string or hash node of its own.
  EXPECT_LE(n, 3u);
  EXPECT_GT(program.resolution->classes.size(), 0u);
}

TEST(AllocBounds, OptimizeStaysWithinItsCount) {
  const Program program = Parser::parseProgram("J48.mjava", fixedSource());
  core::OptimizeResult result;
  const std::size_t n =
      allocationsOf([&] { result = core::Optimizer().optimize(program); });
  // 37 at the time of writing, down from 282 when the optimizer kept a
  // hash set per fact and method and built a "Class.field" string per
  // variable read.
  EXPECT_LE(n, 37u);
  EXPECT_EQ(result.program.units.size(), 1u);
}

TEST(AllocBounds, PrintAllocatesOnlyItsBuffer) {
  const Program program = Parser::parseProgram("J48.mjava", fixedSource());
  std::string printed;
  const std::size_t n =
      allocationsOf([&] { printed = printUnit(program.units.front()); });
  // One allocation, down from 319 when the printer built nested strings.
  EXPECT_LE(n, 1u);
  EXPECT_GT(printed.size(), 2000u);
  // Appending to a buffer with room allocates nothing.
  std::string out;
  out.reserve(2 * printed.size());
  EXPECT_EQ(allocationsOf([&] { printUnitTo(out, program.units.front()); }),
            0u);
  EXPECT_EQ(out, printed);
}

}  // namespace
}  // namespace jepo::jlang
