#include "fault/fault.hpp"

#include <cstdlib>

#include "obs/registry.hpp"
#include "rapl/rapl.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace jepo::fault {

namespace {

obs::Counter& faultCounter(const char* name) {
  return obs::Registry::global().counter(name);
}

bool isEnergyStatus(std::uint32_t msr) noexcept {
  return msr == rapl::kMsrPkgEnergyStatus ||
         msr == rapl::kMsrPp0EnergyStatus ||
         msr == rapl::kMsrPp1EnergyStatus ||
         msr == rapl::kMsrDramEnergyStatus;
}

std::uint32_t domainMsrByName(std::string_view name) {
  if (name == "package") return rapl::kMsrPkgEnergyStatus;
  if (name == "core") return rapl::kMsrPp0EnergyStatus;
  if (name == "uncore") return rapl::kMsrPp1EnergyStatus;
  if (name == "dram") return rapl::kMsrDramEnergyStatus;
  throw Error("fault plan: unknown domain '" + std::string(name) +
              "' (expected package|core|uncore|dram)");
}

FaultSpec preset(std::string_view name) {
  FaultSpec s;
  if (name == "none") return s;
  if (name == "transient") {
    s.transientProb = 0.2;
    s.transientBurst = 2;
    return s;
  }
  if (name == "transient-heavy") {
    s.transientProb = 0.5;
    s.transientBurst = 3;  // still inside the default 4-attempt budget
    return s;
  }
  if (name == "stale") {
    s.staleProb = 0.1;
    return s;
  }
  if (name == "glitch") {
    s.backwardsProb = 0.05;
    s.jumpProb = 0.02;
    return s;
  }
  if (name == "chaos") {
    s.transientProb = 0.2;
    s.transientBurst = 2;
    s.staleProb = 0.05;
    s.backwardsProb = 0.02;
    s.jumpProb = 0.01;
    return s;
  }
  if (name == "exhausting") {
    // Bursts longer than any retry budget: some measurements become
    // invalid and must be absorbed by measurement-level retry or row
    // flagging, never by a crash.
    s.transientProb = 0.05;
    s.transientBurst = 99;
    return s;
  }
  if (name == "no-dram") {
    s.unavailable = {rapl::kMsrDramEnergyStatus};
    return s;
  }
  if (name == "no-core") {
    s.unavailable = {rapl::kMsrPp0EnergyStatus};
    return s;
  }
  if (name == "no-uncore") {
    s.unavailable = {rapl::kMsrPp1EnergyStatus};
    return s;
  }
  if (name == "no-package") {
    s.unavailable = {rapl::kMsrPkgEnergyStatus};
    return s;
  }
  throw Error(
      "fault plan: unknown preset '" + std::string(name) +
      "' (expected none|transient|transient-heavy|stale|glitch|chaos|"
      "exhausting|no-dram|no-core|no-uncore|no-package)");
}

double parseProb(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    throw Error("fault plan: " + key + "=" + value +
                " is not a probability in [0,1]");
  }
  return p;
}

}  // namespace

bool FaultSpec::active() const noexcept {
  return transientProb > 0.0 || staleProb > 0.0 || backwardsProb > 0.0 ||
         jumpProb > 0.0 || !unavailable.empty();
}

std::string FaultSpec::describe() const {
  // Canonical form: the empty preset plus explicit overrides, so the
  // string round-trips through parseFaultPlan.
  std::string out = "none:seed=" + std::to_string(seed);
  if (transientProb > 0.0) {
    out += ",transient-prob=" + fixed(transientProb, 3) +
           ",transient-burst=" + std::to_string(transientBurst);
  }
  if (staleProb > 0.0) out += ",stale-prob=" + fixed(staleProb, 3);
  if (backwardsProb > 0.0) {
    out += ",backwards-prob=" + fixed(backwardsProb, 3);
  }
  if (jumpProb > 0.0) out += ",jump-prob=" + fixed(jumpProb, 3);
  for (std::uint32_t msr : unavailable) {
    for (rapl::Domain d : rapl::kAllDomains) {
      if (rapl::domainMsr(d) == msr) {
        out += ",drop-domain=" + std::string(rapl::domainName(d));
        break;
      }
    }
  }
  return out;
}

FaultSpec parseFaultPlan(const std::string& text) {
  const std::string trimmed(trim(text));
  if (trimmed.empty()) return FaultSpec{};
  const auto colon = trimmed.find(':');
  FaultSpec spec = preset(colon == std::string::npos
                              ? std::string_view(trimmed)
                              : std::string_view(trimmed).substr(0, colon));
  if (colon == std::string::npos) return spec;

  for (const std::string& kv : split(trimmed.substr(colon + 1), ',')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      throw Error("fault plan: expected key=value, got '" + kv + "'");
    }
    const std::string key(trim(kv.substr(0, eq)));
    const std::string value(trim(kv.substr(eq + 1)));
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "transient-prob") {
      spec.transientProb = parseProb(key, value);
    } else if (key == "transient-burst") {
      spec.transientBurst =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      if (spec.transientBurst < 1) {
        throw Error("fault plan: transient-burst must be >= 1");
      }
    } else if (key == "stale-prob") {
      spec.staleProb = parseProb(key, value);
    } else if (key == "backwards-prob") {
      spec.backwardsProb = parseProb(key, value);
    } else if (key == "jump-prob") {
      spec.jumpProb = parseProb(key, value);
    } else if (key == "drop-domain") {
      spec.unavailable.push_back(domainMsrByName(value));
    } else {
      throw Error("fault plan: unknown key '" + key +
                  "' (expected seed|transient-prob|transient-burst|"
                  "stale-prob|backwards-prob|jump-prob|drop-domain)");
    }
  }
  return spec;
}

FaultPlan::FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {}

bool FaultPlan::unavailable(std::uint32_t msr) const noexcept {
  for (std::uint32_t u : spec_.unavailable) {
    if (u == msr) return true;
  }
  return false;
}

FaultDecision FaultPlan::decide(std::uint32_t msr,
                                std::uint64_t ordinal) const {
  FaultDecision d;
  // One private RNG per (register, read ordinal): the decision never
  // depends on call history, threads, or the clock.
  Rng rng(deriveSeed(spec_.seed, msr, ordinal, 0xFA5EEDULL));
  const double u = rng.nextDouble();
  double edge = spec_.transientProb;
  if (u < edge) {
    d.kind = FaultKind::kTransient;
    d.burst = spec_.transientBurst;
    return d;
  }
  if (!isEnergyStatus(msr)) return d;  // value faults: counters only
  if (u < (edge += spec_.staleProb)) {
    d.kind = FaultKind::kStale;
    return d;
  }
  if (u < (edge += spec_.backwardsProb)) {
    d.kind = FaultKind::kBackwards;
    d.magnitude = 1 + static_cast<std::uint32_t>(rng.nextBelow(4096));
    return d;
  }
  if (u < (edge += spec_.jumpProb)) {
    d.kind = FaultKind::kJump;
    // More than half the counter range forward: indistinguishable from the
    // counter having silently run through extra wraps.
    d.magnitude = 0x80000000u + static_cast<std::uint32_t>(
                                    rng.nextBelow(0x40000000u));
    return d;
  }
  return d;
}

FaultyMsrDevice::FaultyMsrDevice(const rapl::MsrDevice& inner, FaultPlan plan)
    : inner_(&inner), plan_(std::move(plan)) {
  faultCounter("fault.devices").add();
}

std::uint64_t FaultyMsrDevice::read(std::uint32_t msr) const {
  if (plan_.unavailable(msr)) {
    faultCounter("fault.injected.unavailable").add();
    throw rapl::MsrError(msr, rapl::MsrError::Kind::kPermanent,
                         "msr read: register " + rapl::msrName(msr) +
                             " not implemented on this SKU (fault plan)");
  }
  const std::uint64_t ordinal = ordinal_++;

  // A transient burst in progress keeps failing without consulting the
  // plan, so one event spans `burst` consecutive attempts of this register.
  const auto burstIt = burst_.find(msr);
  if (burstIt != burst_.end() && burstIt->second > 0) {
    --burstIt->second;
    ++injected_;
    faultCounter("fault.injected.transient").add();
    throw rapl::MsrError(msr, rapl::MsrError::Kind::kTransient,
                         "msr read: transient failure on " +
                             rapl::msrName(msr) + " (fault plan burst)");
  }

  const FaultDecision d = plan_.decide(msr, ordinal);
  switch (d.kind) {
    case FaultKind::kTransient: {
      burst_[msr] = d.burst - 1;
      ++injected_;
      faultCounter("fault.injected.transient").add();
      throw rapl::MsrError(msr, rapl::MsrError::Kind::kTransient,
                           "msr read: transient failure on " +
                               rapl::msrName(msr) + " (fault plan)");
    }
    case FaultKind::kStale: {
      const auto it = last_.find(msr);
      if (it != last_.end()) {
        ++injected_;
        faultCounter("fault.injected.stale").add();
        return it->second;  // repeat the last value we returned
      }
      break;  // nothing to repeat yet: serve the true value
    }
    case FaultKind::kBackwards: {
      const auto it = last_.find(msr);
      if (it != last_.end()) {
        ++injected_;
        faultCounter("fault.injected.backwards").add();
        const std::uint32_t glitched =
            static_cast<std::uint32_t>(it->second) - d.magnitude;
        last_[msr] = glitched;
        return glitched;
      }
      break;
    }
    case FaultKind::kJump: {
      ++injected_;
      faultCounter("fault.injected.jump").add();
      const std::uint32_t jumped =
          static_cast<std::uint32_t>(inner_->read(msr)) + d.magnitude;
      last_[msr] = jumped;
      return jumped;
    }
    case FaultKind::kNone:
      break;
  }

  const std::uint64_t value = inner_->read(msr);
  last_[msr] = value;
  return value;
}

}  // namespace jepo::fault
