#include "jvm/tier.hpp"

#include <cstdlib>

namespace jepo::jvm {

const char* tierName(InstrTier tier) noexcept {
  return tier == InstrTier::kSampled ? "sampled" : "full";
}

std::string TierSpec::describe() const {
  if (tier == InstrTier::kSampled) {
    return "sampled:" + std::to_string(sampleEvery);
  }
  return "full";
}

namespace {

[[noreturn]] void badTier(std::string_view text) {
  throw Error("bad tier spec '" + std::string(text) +
              "' (expected full or sampled:N)");
}

/// Strict decimal parse of the ":N" payload — rejects empty, signs,
/// whitespace and trailing junk, the same discipline as the bench flag
/// parser.
std::uint64_t parseCount(std::string_view text, std::string_view payload) {
  if (payload.empty()) badTier(text);
  std::uint64_t value = 0;
  for (const char c : payload) {
    if (c < '0' || c > '9') badTier(text);
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) badTier(text);
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

TierSpec parseTierSpec(std::string_view text) {
  TierSpec spec;
  if (text == "full") {
    return spec;
  }
  constexpr std::string_view kSampled = "sampled:";
  if (text.rfind(kSampled, 0) == 0) {
    spec.tier = InstrTier::kSampled;
    spec.sampleEvery = parseCount(text, text.substr(kSampled.size()));
    if (spec.sampleEvery == 0) badTier(text);
    return spec;
  }
  badTier(text);
}

}  // namespace jepo::jvm
