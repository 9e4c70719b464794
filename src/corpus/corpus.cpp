#include "corpus/corpus.hpp"

#include <array>

#include "jlang/parser.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace jepo::corpus {

using ml::ClassifierKind;

CorpusProfile profileFor(ClassifierKind kind) {
  // Columns of Table II (dependencies/attributes/methods/packages) and the
  // Changes column of Table IV.
  switch (kind) {
    case ClassifierKind::kJ48: return {684, 3263, 7746, 41, 877};
    case ClassifierKind::kRandomTree: return {668, 3235, 7611, 41, 709};
    case ClassifierKind::kRandomForest: return {673, 3270, 7736, 42, 719};
    case ClassifierKind::kRepTree: return {668, 3235, 7619, 41, 723};
    case ClassifierKind::kNaiveBayes: return {668, 3229, 7582, 40, 711};
    case ClassifierKind::kLogistic: return {666, 3216, 7553, 40, 711};
    case ClassifierKind::kSmo: return {677, 3305, 7796, 43, 713};
    case ClassifierKind::kSgd: return {669, 3222, 7585, 40, 713};
    case ClassifierKind::kKStar: return {671, 3282, 7576, 41, 711};
    case ClassifierKind::kIbk: return {671, 3268, 7703, 41, 711};
  }
  throw Error("unknown classifier kind");
}

namespace {

// ---------------------------------------------------------------------------
// Method templates. Efficient fillers produce zero optimizer changes; each
// seeded inefficiency produces exactly one.

/// Efficient filler methods (rotated by index).
std::string fillerMethod(const std::string& name, std::size_t variant) {
  // Body shapes sized so the corpus lands near WEKA's ~13 lines/method.
  switch (variant % 6) {
    case 0:
      return "    int " + name + "(int v) {\n"
             "        int acc = v * 3 + 1;\n"
             "        int bias = v & 31;\n"
             "        if (acc > 100) {\n"
             "            acc = acc - 7;\n"
             "        }\n"
             "        else {\n"
             "            acc = acc + 7;\n"
             "        }\n"
             "        return acc + bias;\n"
             "    }\n";
    case 1:
      return "    int " + name + "(int[] values, int n) {\n"
             "        int total = 0;\n"
             "        int high = 0;\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            int v = values[i] & 15;\n"
             "            total += v;\n"
             "            if (v > high) {\n"
             "                high = v;\n"
             "            }\n"
             "        }\n"
             "        return total + high;\n"
             "    }\n";
    case 2:
      return "    int " + name + "(int[] src, int[] dst, int n) {\n"
             "        if (n <= 0) {\n"
             "            return 0;\n"
             "        }\n"
             "        if (n > src.length) {\n"
             "            n = src.length;\n"
             "        }\n"
             "        System.arraycopy(src, 0, dst, 0, n);\n"
             "        return n;\n"
             "    }\n";
    case 3:
      return "    boolean " + name + "(String a, String b) {\n"
             "        if (a.equals(b)) {\n"
             "            return true;\n"
             "        }\n"
             "        if (a.isEmpty()) {\n"
             "            return false;\n"
             "        }\n"
             "        return a.length() > b.length();\n"
             "    }\n";
    case 4:
      return "    String " + name + "(int n) {\n"
             "        StringBuilder sb = new StringBuilder();\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            if ((i & 1) == 0) {\n"
             "                sb.append('x');\n"
             "            }\n"
             "            else {\n"
             "                sb.append('o');\n"
             "            }\n"
             "        }\n"
             "        return sb.toString();\n"
             "    }\n";
    default:
      return "    float " + name + "(float v) {\n"
             "        float scaled = v * 1.5f;\n"
             "        float floor = 0.0f;\n"
             "        if (scaled < floor) {\n"
             "            return floor;\n"
             "        }\n"
             "        return scaled + 2.5f;\n"
             "    }\n";
  }
}

inline constexpr int kPatternKinds = 11;

/// One method carrying exactly one JEPO-fixable pattern. `staticHost` is
/// set when the class hosts the read-only static the pattern needs.
std::string seededMethod(const std::string& name, int pattern) {
  switch (pattern) {
    case 0:  // long local (long -> int, lossy mode)
      return "    int " + name + "(int n) {\n"
             "        long total = 0L;\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            total = total + i;\n"
             "        }\n"
             "        return (int) total;\n"
             "    }\n";
    case 1:  // double local (double -> float, lossy mode)
      return "    float " + name + "(float v) {\n"
             "        double ratio = 0.5;\n"
             "        return (float) (v * ratio);\n"
             "    }\n";
    case 2:  // plain decimal literal in a float context (-> scientific)
      return "    float " + name + "(float v) {\n"
             "        float scale = 12000.0f;\n"
             "        return v * scale;\n"
             "    }\n";
    case 3:  // Short wrapper (-> Integer)
      return "    int " + name + "(int v) {\n"
             "        Short boxed = 5;\n"
             "        return v + boxed.intValue();\n"
             "    }\n";
    case 4:  // read-only static read twice (-> cached local)
      return "    int " + name + "(int v) {\n"
             "        int low = v - CONFIG_LIMIT;\n"
             "        int high = v + CONFIG_LIMIT;\n"
             "        return low * high;\n"
             "    }\n";
    case 5:  // modulus by a power of two on a loop counter (-> mask)
      return "    int " + name + "(int n) {\n"
             "        int acc = 0;\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            acc += i % 8;\n"
             "        }\n"
             "        return acc;\n"
             "    }\n";
    case 6:  // ternary return (-> if-then-else)
      return "    int " + name + "(int a, int b) {\n"
             "        return a > b ? a : b;\n"
             "    }\n";
    case 7:  // compareTo equality (-> equals)
      return "    boolean " + name + "(String a, String b) {\n"
             "        return a.compareTo(b) == 0;\n"
             "    }\n";
    case 8:  // manual copy loop (-> System.arraycopy)
      return "    void " + name + "(int[] src, int[] dst, int n) {\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            dst[i] = src[i];\n"
             "        }\n"
             "    }\n";
    case 9:  // column-major nest (-> loop interchange, lossy mode)
      return "    int " + name + "(int[][] m, int rows, int cols) {\n"
             "        int acc = 0;\n"
             "        for (int j = 0; j < cols; j++) {\n"
             "            for (int i = 0; i < rows; i++) {\n"
             "                acc += m[i][j];\n"
             "            }\n"
             "        }\n"
             "        return acc;\n"
             "    }\n";
    default:  // 10: string concat in a loop (-> StringBuilder)
      return "    String " + name + "(int n) {\n"
             "        String s = \"\";\n"
             "        for (int i = 0; i < n; i++) {\n"
             "            s = s + \"x\";\n"
             "        }\n"
             "        return s;\n"
             "    }\n";
  }
}

/// Efficient field declarations (no optimizer changes).
std::string fillerField(const std::string& name, std::size_t variant) {
  switch (variant % 5) {
    case 0: return "    int " + name + " = 0;\n";
    case 1: return "    int[] " + name + ";\n";
    case 2: return "    String " + name + ";\n";
    case 3: return "    float " + name + " = 1.5f;\n";
    default: return "    boolean " + name + " = false;\n";
  }
}

/// WEKA-flavored package names; extended with numbered sub-packages to hit
/// the per-classifier package count of Table II.
std::vector<std::string> packageNames(std::size_t count,
                                      std::string_view flavor) {
  static const char* kBase[] = {
      "weka.core",        "weka.core.converters", "weka.core.matrix",
      "weka.core.neighboursearch", "weka.classifiers",
      "weka.classifiers.evaluation", "weka.classifiers.functions",
      "weka.classifiers.meta", "weka.filters",
      "weka.filters.unsupervised", "weka.filters.supervised",
      "weka.attributeSelection", "weka.estimators", "weka.associations"};
  std::vector<std::string> out;
  for (const char* p : kBase) {
    if (out.size() >= count) return out;
    out.emplace_back(p);
  }
  out.push_back("weka.classifiers." + std::string(flavor));
  std::size_t n = 0;
  while (out.size() < count) {
    out.push_back("weka.core.impl" + std::to_string(n++));
  }
  return out;
}

}  // namespace

jlang::Program generateScaledCorpus(ClassifierKind kind, double scale,
                                    std::uint64_t seed, int* outChanges) {
  JEPO_REQUIRE(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
  const CorpusProfile full = profileFor(kind);
  CorpusProfile p;
  p.classes = std::max<std::size_t>(4, static_cast<std::size_t>(
                                           full.classes * scale));
  p.attributes = std::max<std::size_t>(
      p.classes, static_cast<std::size_t>(full.attributes * scale));
  p.methods = std::max<std::size_t>(
      p.classes, static_cast<std::size_t>(full.methods * scale));
  p.packages = std::max<std::size_t>(
      2, std::min(p.classes, static_cast<std::size_t>(
                                 full.packages * (scale < 1.0 ? scale * 2
                                                              : 1.0))));
  p.seededChanges = std::max(1, static_cast<int>(full.seededChanges * scale));
  if (outChanges != nullptr) *outChanges = p.seededChanges;

  Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 32));
  std::string flavor = replaceAll(ml::classifierName(kind), " ", "");
  const auto packages = packageNames(p.packages, flavor);

  // Distribute fields/methods across classes as evenly as counts allow.
  const std::size_t baseFields = p.attributes / p.classes;
  const std::size_t extraFields = p.attributes % p.classes;
  const std::size_t baseMethods = p.methods / p.classes;
  const std::size_t extraMethods = p.methods % p.classes;

  // Which (class, method-slot) pairs carry a seeded pattern: the first
  // seededChanges method slots, striped over classes so every class gets a
  // realistic sprinkling.
  const std::size_t totalMethods = p.methods;
  JEPO_REQUIRE(static_cast<std::size_t>(p.seededChanges) <= totalMethods,
               "more changes than methods");

  jlang::Program program;
  std::size_t methodSerial = 0;
  int patternsLeft = p.seededChanges;
  int patternCycle = 0;

  std::vector<std::string> classNames(p.classes);
  for (std::size_t c = 0; c < p.classes; ++c) {
    classNames[c] = "Weka" + std::string(flavor.substr(0, 3)) + "Class" +
                    std::to_string(c);
    // Strip spaces from flavors like "Random Tree".
    classNames[c] = replaceAll(classNames[c], " ", "");
  }

  // Stride so seeded methods spread across the project: one seeded method
  // every `stride` methods until the budget is exhausted.
  const std::size_t stride =
      std::max<std::size_t>(1, totalMethods /
                                   static_cast<std::size_t>(p.seededChanges));

  for (std::size_t c = 0; c < p.classes; ++c) {
    const std::string& pkg = packages[c % packages.size()];
    std::string src = "package " + pkg + ";\n";
    // Imports: 2-5 other classes in the project (dependency edges).
    const std::size_t imports = 2 + rng.nextBelow(4);
    for (std::size_t k = 0; k < imports; ++k) {
      const std::size_t other = rng.nextBelow(p.classes);
      if (other == c) continue;
      src += "import " + packages[other % packages.size()] + "." +
             classNames[other] + ";\n";
    }
    src += "\nclass " + classNames[c] + " {\n";

    const std::size_t fields = baseFields + (c < extraFields ? 1 : 0);
    const std::size_t methods = baseMethods + (c < extraMethods ? 1 : 0);

    // Does any method of this class need the read-only static host?
    bool needsStaticHost = false;
    {
      std::size_t probeSerial = methodSerial;
      int probeLeft = patternsLeft;
      int probeCycle = patternCycle;
      for (std::size_t m = 0; m < methods; ++m, ++probeSerial) {
        if (probeLeft > 0 && probeSerial % stride == 0) {
          if (probeCycle % kPatternKinds == 4) needsStaticHost = true;
          ++probeCycle;
          --probeLeft;
        }
      }
    }
    // The static host counts against the class's field budget so the
    // attribute totals stay exactly at Table II's counts.
    std::size_t fillerFields = fields;
    if (needsStaticHost) {
      src += "    static int CONFIG_LIMIT = 64;\n";
      if (fillerFields > 0) --fillerFields;
    }
    for (std::size_t f = 0; f < fillerFields; ++f) {
      src += fillerField("field" + std::to_string(f), c + f);
    }

    for (std::size_t m = 0; m < methods; ++m, ++methodSerial) {
      const std::string name = "method" + std::to_string(m);
      if (patternsLeft > 0 && methodSerial % stride == 0) {
        src += seededMethod(name, patternCycle % kPatternKinds);
        ++patternCycle;
        --patternsLeft;
      } else {
        src += fillerMethod(name, methodSerial);
      }
    }
    src += "}\n";

    jlang::Parser::addUnit(program, classNames[c] + ".mjava", src);
  }
  JEPO_REQUIRE(patternsLeft == 0, "seeded-change budget not exhausted");
  return program;
}

}  // namespace jepo::corpus
