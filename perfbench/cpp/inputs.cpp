#include "inputs.hpp"

#include <cstdio>

#include "corpus/corpus.hpp"
#include "jepod/protocol.hpp"
#include "jlang/printer.hpp"
#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using jepo::jepod::JobRequest;

/// Suggest/optimize sources drawn per fresh-source seed; each request picks
/// one and appends its own nonce class.
constexpr std::size_t kFreshPoolSize = 48;
/// Corpus fraction the pool's classes come from (~15-20 classes).
constexpr double kFreshCorpusScale = 0.03;
/// Classes per suggest/optimize source: 1..kMaxClassesPerSource.
constexpr std::uint64_t kMaxClassesPerSource = 6;

const char* const kFreshCommands[] = {"suggest", "optimize", "profile"};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string_view workloadName(Workload w) noexcept {
  switch (w) {
    case Workload::kProfileHot: return "profile-hot";
    case Workload::kFreshSource: return "fresh-source";
    case Workload::kTable4: return "table4";
  }
  return "?";
}

bool parseWorkload(std::string_view name, Workload* out) noexcept {
  for (const Workload w : {Workload::kProfileHot, Workload::kFreshSource,
                           Workload::kTable4}) {
    if (name == workloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const std::vector<HotProgram>& hotPrograms() {
  static const std::vector<HotProgram> programs = [] {
    std::vector<HotProgram> out;
    out.push_back({"loop-kernel",
                   "class LoopKernel {\n"
                   "  static void main(String[] args) {\n"
                   "    int acc = 0;\n"
                   "    for (int i = 0; i < 20000; i++) {\n"
                   "      acc = acc + (i * 7) % 13;\n"
                   "      if (acc > 100000) {\n"
                   "        acc = acc - 100000;\n"
                   "      }\n"
                   "    }\n"
                   "    System.out.println(\"loop=\" + acc);\n"
                   "  }\n"
                   "}\n",
                   0});
    out.push_back({"call-kernel",
                   "class CallKernel {\n"
                   "  static int step(int x) {\n"
                   "    return (x * 31 + 7) % 1009;\n"
                   "  }\n"
                   "  static void main(String[] args) {\n"
                   "    int v = 1;\n"
                   "    for (int i = 0; i < 2000; i++) {\n"
                   "      v = step(v);\n"
                   "    }\n"
                   "    System.out.println(\"calls=\" + v);\n"
                   "  }\n"
                   "}\n",
                   0});
    // The demo edge pipeline (the figure benches' project). It allocates
    // a window snapshot and label strings every frame; at 48 live objects
    // the collector runs several times per job.
    out.push_back({"edge-pipeline",
                   R"(package edge.inference;

class SensorWindow {
  int size;
  long checksum;
  int[] samples;

  SensorWindow(int windowSize) {
    size = windowSize;
    samples = new int[windowSize];
    checksum = 0L;
  }

  void fill(int seedValue) {
    for (int i = 0; i < size; i++) {
      samples[i] = (seedValue * 31 + i * 17) % 128;
      checksum = checksum + samples[i];
    }
  }

  int[] snapshot() {
    int[] copy = new int[size];
    for (int i = 0; i < size; i++) {
      copy[i] = samples[i];
    }
    return copy;
  }
}

class FeatureExtractor {
  static int SMOOTHING = 4;

  int energyOf(int[] window) {
    int acc = 0;
    for (int i = 0; i < window.length; i++) {
      acc += window[i] % 8;
      acc += window[i] / SMOOTHING + SMOOTHING;
    }
    return acc;
  }

  int peakOf(int[] window) {
    int peak = 0;
    for (int i = 0; i < window.length; i++) {
      peak = window[i] > peak ? window[i] : peak;
    }
    return peak;
  }
}

class EdgeClassifier {
  int threshold;

  EdgeClassifier(int limit) { threshold = limit; }

  String classify(int energy, int peak) {
    String label = "";
    for (int i = 0; i < 3; i++) {
      label = label + (energy > threshold ? "H" : "L");
      energy = energy / 2;
    }
    double confidence = 10000.0;
    if (peak > 100) {
      confidence = confidence * 1.5;
    }
    return label;
  }
}

class Main {
  static void main(String[] args) {
    SensorWindow window = new SensorWindow(64);
    FeatureExtractor extractor = new FeatureExtractor();
    EdgeClassifier classifier = new EdgeClassifier(120);
    int alerts = 0;
    for (int frame = 0; frame < 40; frame++) {
      window.fill(frame);
      int[] snapshot = window.snapshot();
      int energy = extractor.energyOf(snapshot);
      int peak = extractor.peakOf(snapshot);
      String label = classifier.classify(energy, peak);
      if (label.compareTo("HHH") == 0) {
        alerts++;
      }
    }
    System.out.println("alerts=" + alerts);
  }
}
)",
                   48});
    out.push_back({"short-loop",
                   "class ShortLoop {\n"
                   "  static void main(String[] args) {\n"
                   "    int acc = 0;\n"
                   "    for (int i = 0; i < 400; i++) {\n"
                   "      acc = acc + i % 11;\n"
                   "    }\n"
                   "    System.out.println(\"short=\" + acc);\n"
                   "  }\n"
                   "}\n",
                   0});
    return out;
  }();
  return programs;
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  JEPO_REQUIRE(workload != Workload::kTable4,
               "table4 sends no jepod requests");
  if (workload == Workload::kProfileHot) {
    for (const HotProgram& p : hotPrograms()) {
      templates_.push_back(makeTemplate("profile", p.heapLimit));
      sources_.push_back(p.source);
    }
  } else {
    for (const char* command : kFreshCommands) {
      templates_.push_back(makeTemplate(command, 0));
    }
    // One seeded project; each pool entry is a run of 1..6 of its classes
    // under the first one's package and imports.
    const auto kind = static_cast<jepo::ml::ClassifierKind>(
        seed % static_cast<std::uint64_t>(jepo::ml::kClassifierKindCount));
    const jepo::jlang::Program project = jepo::corpus::generateScaledCorpus(
        kind, kFreshCorpusScale, jepo::deriveSeed(seed, 0), nullptr);
    const std::size_t units = project.units.size();
    JEPO_REQUIRE(units > 0, "empty corpus project");
    for (std::size_t e = 0; e < kFreshPoolSize; ++e) {
      const std::size_t start = jepo::deriveSeed(seed, 1, e) % units;
      // Sizes cycle through 1..kMaxClassesPerSource so every seed's pool
      // has the same size mix; only where each run starts is seeded.
      const std::uint64_t count = 1 + e % kMaxClassesPerSource;
      std::string source = jepo::jlang::printUnit(project.units[start]);
      for (std::uint64_t k = 1; k < count; ++k) {
        for (const auto& cls : project.units[(start + k) % units].classes) {
          source += "\n" + jepo::jlang::printClass(cls);
        }
      }
      sources_.push_back(std::move(source));
    }
    probeBound_ = 40 + static_cast<int>(jepo::deriveSeed(seed, 3, 0) % 61);
    probeModulus_ = 3 + static_cast<int>(jepo::deriveSeed(seed, 4, 0) % 7);
  }
  for (const std::string& s : sources_) {
    escapedSources_.push_back(jepo::jsonEscape(s));
  }
}

RequestStream::Template RequestStream::makeTemplate(
    const std::string& command, std::uint64_t heapLimit) const {
  // Render once with placeholder id and source, then split around them.
  JobRequest req;
  req.id = "\x01";
  req.tenant = "perfbench";
  req.command = command;
  req.source = "\x02";
  req.seed = seed_;
  req.heapLimit = heapLimit;
  const std::string line = jepo::jepod::renderRequest(req);
  const std::string idMark = jepo::jsonEscape("\x01");
  const std::string srcMark = jepo::jsonEscape("\x02");
  const std::size_t idAt = line.find(idMark);
  const std::size_t srcAt = line.find(srcMark);
  JEPO_REQUIRE(idAt != std::string::npos && srcAt != std::string::npos &&
                   idAt < srcAt,
               "request template lost its placeholders");
  Template t;
  t.head = line.substr(0, idAt);
  t.mid = line.substr(idAt + idMark.size(), srcAt - idAt - idMark.size());
  t.tail = line.substr(srcAt + srcMark.size());
  return t;
}

std::uint64_t RequestStream::roundSize() const noexcept {
  return workload_ == Workload::kProfileHot ? hotPrograms().size() : 3;
}

std::string RequestStream::nonceClass(const char* prefix, std::uint32_t lane,
                                      std::uint64_t ordinal) const {
  return std::string(prefix) + hex(seed_) + "L" + std::to_string(lane) + "N" +
         std::to_string(ordinal);
}

std::string RequestStream::sourceOf(std::uint32_t lane,
                                     std::uint64_t ordinal) const {
  const std::uint64_t slot = (ordinal + lane) % roundSize();
  if (workload_ == Workload::kProfileHot) return sources_[slot];
  if (slot == 2) {
    // A short profile program: its shape (hence its step count) depends on
    // the seed only; its name and start value on the request.
    return "class " + nonceClass("Probe", lane, ordinal) +
           " {\n"
           "  static void main(String[] args) {\n"
           "    int acc = " + std::to_string(ordinal % 1000) + ";\n"
           "    for (int i = 0; i < " + std::to_string(probeBound_) +
           "; i++) {\n"
           "      acc = acc + i % " + std::to_string(probeModulus_) + ";\n"
           "    }\n"
           "    System.out.println(\"probe=\" + acc);\n"
           "  }\n"
           "}\n";
  }
  return sources_[poolEntry(lane, ordinal)] + editSuffix(lane, ordinal);
}

std::size_t RequestStream::poolEntry(std::uint32_t lane,
                                     std::uint64_t ordinal) const {
  return jepo::deriveSeed(seed_, 5 + lane, ordinal) % kFreshPoolSize;
}

std::string RequestStream::editSuffix(std::uint32_t lane,
                                      std::uint64_t ordinal) const {
  return "\nclass " + nonceClass("Edit", lane, ordinal) + " {\n}\n";
}

Request RequestStream::make(std::uint32_t lane, std::uint64_t ordinal) const {
  const std::uint64_t slot = (ordinal + lane) % roundSize();
  const Template& t = templates_[slot];
  Request r;
  r.id = "c" + std::to_string(lane) + "-" + std::to_string(ordinal);
  r.line = t.head + r.id + t.mid;
  if (workload_ == Workload::kProfileHot) {
    r.command = "profile";
    r.hotProgram = static_cast<int>(slot);
    r.line += escapedSources_[slot];
  } else {
    r.command = kFreshCommands[slot];
    if (slot == 2) {
      r.line += jepo::jsonEscape(sourceOf(lane, ordinal));
    } else {
      r.line += escapedSources_[poolEntry(lane, ordinal)];
      r.line += jepo::jsonEscape(editSuffix(lane, ordinal));
    }
  }
  r.line += t.tail;
  return r;
}

}  // namespace perfbench
