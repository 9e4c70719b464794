#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault.hpp"
#include "jepo/engine.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "jvm/interpreter.hpp"

namespace jepo::core {
namespace {

std::vector<Suggestion> analyze(const std::string& src,
                                SuggestionEngine::Options opts = {}) {
  SuggestionEngine engine(opts);
  return engine.analyzeSource("test.mjava", src);
}

int countRule(const std::vector<Suggestion>& v, RuleId id) {
  return static_cast<int>(
      std::count_if(v.begin(), v.end(),
                    [id](const Suggestion& s) { return s.rule == id; }));
}

// One positive + one negative case per Table I rule.

TEST(Engine, PrimitiveDataTypeRule) {
  const auto hits = analyze(R"(
    class C {
      long total;
      short small;
      void m(byte b) { long x = 1L; int ok = 1; }
    }
  )");
  EXPECT_EQ(countRule(hits, RuleId::kPrimitiveDataType), 4);  // total, small, b, x
  EXPECT_EQ(countRule(analyze("class C { int a; void m(int b) { int c = 1; } }"),
                      RuleId::kPrimitiveDataType),
            0);
  // Arrays of long are not flagged (the rule targets scalars).
  EXPECT_EQ(countRule(analyze("class C { long[] a; }"),
                      RuleId::kPrimitiveDataType),
            0);
}

TEST(Engine, ScientificNotationRule) {
  const auto hits = analyze(R"(
    class C {
      double big = 10000.0;
      double tinyVal = 0.00001;
      double fine = 1e4;
      double small = 2.5;
    }
  )");
  EXPECT_EQ(countRule(hits, RuleId::kScientificNotation), 2);
}

TEST(Engine, WrapperClassRule) {
  const auto hits = analyze(R"(
    class C {
      Long a;
      Double b;
      Integer good;
      void m() { Short s = 1; }
    }
  )");
  EXPECT_EQ(countRule(hits, RuleId::kWrapperClass), 3);
}

TEST(Engine, StaticKeywordRule) {
  const auto hits = analyze(R"(
    class C {
      static int counter;
      int instance;
    }
  )");
  EXPECT_EQ(countRule(hits, RuleId::kStaticKeyword), 1);
  EXPECT_EQ(hits[0].className, "C");
}

TEST(Engine, ModulusRuleWithPowerOfTwoHint) {
  const auto hits = analyze(R"(
    class C {
      int m(int i) { return i % 8; }
      int n(int i) { return i % 7; }
      int ok(int i) { return i & 7; }
    }
  )");
  ASSERT_EQ(countRule(hits, RuleId::kModulusOperator), 2);
  // The power-of-two case carries the bitmask hint.
  const auto p2 = std::find_if(hits.begin(), hits.end(), [](const auto& s) {
    return s.rule == RuleId::kModulusOperator &&
           s.detail.find("power of two") != std::string::npos;
  });
  EXPECT_NE(p2, hits.end());
}

TEST(Engine, TernaryRule) {
  EXPECT_EQ(countRule(analyze("class C { int m(int x) { return x > 0 ? 1 : 2; } }"),
                      RuleId::kTernaryOperator),
            1);
  EXPECT_EQ(countRule(analyze(R"(
    class C { int m(int x) { if (x > 0) return 1; else return 2; } }
  )"),
                      RuleId::kTernaryOperator),
            0);
}

TEST(Engine, ShortCircuitOrderRule) {
  // Complex left, simple right -> suggest reorder. Both the outer && (vs
  // `flag`) and the inner one (vs `a != b`) qualify.
  EXPECT_EQ(countRule(analyze(R"(
    class C { boolean m(int a, int b, boolean flag) {
      return (a * a + b * b > 100 && a != b) && flag;
    } }
  )"),
                      RuleId::kShortCircuitOrder),
            2);
  // Simple-first is already right.
  EXPECT_EQ(countRule(analyze(R"(
    class C { boolean m(int a, boolean flag) { return flag && a * a > 100; } }
  )"),
                      RuleId::kShortCircuitOrder),
            0);
  // Impure operands are never flagged for reorder.
  EXPECT_EQ(countRule(analyze(R"(
    class C {
      int calls = 0;
      boolean probe() { calls++; return true; }
      boolean m(int a, boolean flag) { return (probe() && a > 1) && flag; }
    }
  )"),
                      RuleId::kShortCircuitOrder),
            0);
}

TEST(Engine, StringConcatRule) {
  EXPECT_GE(countRule(analyze(R"(
    class C { String m(String s) {
      String out = "";
      for (int i = 0; i < 10; i++) out = out + s;
      return out;
    } }
  )"),
                      RuleId::kStringConcat),
            1);
  // Numeric + is not string concatenation.
  EXPECT_EQ(countRule(analyze("class C { int m(int a) { return a + 1; } }"),
                      RuleId::kStringConcat),
            0);
}

TEST(Engine, StringCompareRule) {
  EXPECT_EQ(countRule(analyze(R"(
    class C { boolean m(String a, String b) { return a.compareTo(b) == 0; } }
  )"),
                      RuleId::kStringCompare),
            1);
  EXPECT_EQ(countRule(analyze(R"(
    class C { boolean m(String a, String b) { return a.equals(b); } }
  )"),
                      RuleId::kStringCompare),
            0);
}

TEST(Engine, ArrayCopyRule) {
  EXPECT_EQ(countRule(analyze(R"(
    class C { void m(int[] src, int[] dst, int n) {
      for (int i = 0; i < n; i++) dst[i] = src[i];
    } }
  )"),
                      RuleId::kArrayCopy),
            1);
  // A transforming loop is not a copy.
  EXPECT_EQ(countRule(analyze(R"(
    class C { void m(int[] src, int[] dst, int n) {
      for (int i = 0; i < n; i++) dst[i] = src[i] * 2;
    } }
  )"),
                      RuleId::kArrayCopy),
            0);
}

TEST(Engine, ArrayTraversalRule) {
  EXPECT_EQ(countRule(analyze(R"(
    class C { int m(int[][] a, int n) {
      int acc = 0;
      for (int j = 0; j < n; j++)
        for (int i = 0; i < n; i++)
          acc += a[i][j];
      return acc;
    } }
  )"),
                      RuleId::kArrayTraversal),
            1);
  EXPECT_EQ(countRule(analyze(R"(
    class C { int m(int[][] a, int n) {
      int acc = 0;
      for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
          acc += a[i][j];
      return acc;
    } }
  )"),
                      RuleId::kArrayTraversal),
            0);
}

TEST(Engine, SuggestionsPointAtTheFlaggedLine) {
  const auto hits = analyze(
      "class C {\n"
      "  int m(int x) {\n"
      "    int y = x + 1;\n"
      "    return y > 0 ? 1 : 2;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rule, RuleId::kTernaryOperator);
  EXPECT_EQ(hits[0].file, "test.mjava");
  EXPECT_EQ(hits[0].className, "C");
  EXPECT_EQ(hits[0].line, 4);
}

TEST(Engine, RecommendedFormsDrawNoSuggestions) {
  // Each Table I rule's recommended form, in one class.
  EXPECT_TRUE(analyze(R"(
    class C {
      int count;
      double rate = 2.5e3;
      Integer boxed;
      int m(int[] src, int[] dst, int[][] grid, int n, String a, String b,
            boolean flag) {
        System.arraycopy(src, 0, dst, 0, n);
        int acc = 0;
        for (int i = 0; i < n; i++)
          for (int j = 0; j < n; j++)
            acc += grid[i][j] & 7;
        if (flag && a.equals(b)) acc++;
        if (acc > 0) acc = 1; else acc = 2;
        return acc + count;
      }
    }
  )").empty());
}

TEST(Engine, RuleDisablingSuppressesDiagnostics) {
  SuggestionEngine::Options opts;
  opts.enabled[static_cast<int>(RuleId::kTernaryOperator)] = false;
  const auto hits =
      analyze("class C { int m(int x) { return x > 0 ? 1 : 2; } }", opts);
  EXPECT_EQ(countRule(hits, RuleId::kTernaryOperator), 0);
}

TEST(Engine, SuggestionsCarryTableOneWording) {
  const auto hits = analyze("class C { static int x; }");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message().find("17,700%"), std::string::npos);
  EXPECT_EQ(ruleComponent(RuleId::kStaticKeyword), "Static keyword");
  // Every rule has non-placeholder wording.
  for (int i = 0; i < kRuleCount; ++i) {
    EXPECT_NE(ruleSuggestion(static_cast<RuleId>(i)), "?");
    EXPECT_NE(ruleComponent(static_cast<RuleId>(i)), "?");
  }
}

TEST(Engine, MultiClassProgramReportsPerClass) {
  jlang::Program prog;
  jlang::Parser::addUnit(prog, "a.mjava", R"(
    class A { static int x; }
  )");
  jlang::Parser::addUnit(prog, "b.mjava", R"(
    class B { long y; }
  )");
  SuggestionEngine engine;
  const auto hits = engine.analyzeProgram(prog);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].className, "A");
  EXPECT_EQ(hits[0].file, "a.mjava");
  EXPECT_EQ(hits[1].className, "B");
}

TEST(Views, RenderAllFigures) {
  const auto hits = analyze("class C { static int x; long y; }");
  const std::string dynamic = renderDynamicView("C.mjava", hits);
  EXPECT_NE(dynamic.find("JEPO — C.mjava"), std::string::npos);
  EXPECT_NE(dynamic.find("17,700%"), std::string::npos);

  const std::string optimizer = renderOptimizerView(hits);
  EXPECT_NE(optimizer.find("Class"), std::string::npos);
  EXPECT_NE(optimizer.find("C"), std::string::npos);

  EXPECT_NE(renderToolbar().find("JEPO"), std::string::npos);
  EXPECT_NE(renderPopupMenu().find("JEPO profiler"), std::string::npos);
  EXPECT_NE(renderPopupMenu().find("JEPO optimizer"), std::string::npos);

  std::vector<jvm::MethodRecord> recs;
  recs.push_back({"Main.work", 0.001, 0.5, 0.4});
  const std::string prof = renderProfilerView(recs);
  EXPECT_NE(prof.find("Main.work"), std::string::npos);
  EXPECT_NE(prof.find("ms"), std::string::npos);

  const std::string empty = renderDynamicView("Clean.mjava", {});
  EXPECT_NE(empty.find("No suggestions"), std::string::npos);
}

TEST(Profiler, ProfilesCompletedRunWithDramColumn) {
  const auto prog = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) acc += i;
        return acc;
      }
      static void main(String[] args) {
        System.out.println(work(60000));
      }
    }
  )");
  Profiler prof;
  prof.profile(prog);
  EXPECT_EQ(prof.programOutput(), "1799970000\n");
  ASSERT_EQ(prof.records().size(), 2u);

  const auto totals = prof.totals();
  ASSERT_EQ(totals.size(), 2u);
  for (const auto& t : totals) EXPECT_GT(t.dramJoules, 0.0);

  const std::string txt = prof.renderResultFile();
  EXPECT_NE(txt.find("Main.work"), std::string::npos);
  EXPECT_EQ(txt.find("(truncated)"), std::string::npos);
  // seconds + three energy domains per line.
  EXPECT_NE(txt.find(" ms\t"), std::string::npos);
}

TEST(Profiler, AbortRetainsTruncatedRecordsAndOutput) {
  const auto prog = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static void spin() { while (true) { int x = 1; } }
      static void main(String[] args) {
        System.out.println("starting");
        spin();
      }
    }
  )");
  Profiler prof;
  EXPECT_THROW(prof.profile(prog, {}, /*maxSteps=*/10'000), VmError);
  // Everything up to the abort survives: output, and the in-flight methods
  // as truncated records (innermost first).
  EXPECT_EQ(prof.programOutput(), "starting\n");
  ASSERT_EQ(prof.records().size(), 2u);
  EXPECT_EQ(prof.records()[0].method, "Main.spin");
  EXPECT_EQ(prof.records()[1].method, "Main.main");
  EXPECT_TRUE(prof.records()[0].truncated);
  EXPECT_TRUE(prof.records()[1].truncated);
  const std::string txt = prof.renderResultFile();
  EXPECT_NE(txt.find("(truncated)"), std::string::npos);
}

TEST(Profiler, MaxStepsAbortReplaysBitIdentically) {
  // The jepo_cli --max-steps contract: two runs of the same program with
  // the same step budget abort at the same point with identical records —
  // a daemon job killed by its budget replays exactly on a workstation.
  const auto prog = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static void spin() { while (true) { int x = 1; } }
      static void main(String[] args) {
        System.out.println("starting");
        spin();
      }
    }
  )");
  Profiler first;
  EXPECT_THROW(first.profile(prog, {}, /*maxSteps=*/25'000), VmError);
  Profiler second;
  EXPECT_THROW(second.profile(prog, {}, /*maxSteps=*/25'000), VmError);

  EXPECT_EQ(second.programOutput(), first.programOutput());
  ASSERT_EQ(second.records().size(), first.records().size());
  for (std::size_t i = 0; i < first.records().size(); ++i) {
    EXPECT_EQ(second.records()[i].method, first.records()[i].method);
    EXPECT_EQ(second.records()[i].seconds, first.records()[i].seconds);
    EXPECT_EQ(second.records()[i].packageJoules,
              first.records()[i].packageJoules);
    EXPECT_EQ(second.records()[i].truncated, first.records()[i].truncated);
  }
  // A larger budget aborts later: the budget is the only thing that
  // decides where the run stops.
  Profiler larger;
  EXPECT_THROW(larger.profile(prog, {}, /*maxSteps=*/50'000), VmError);
  EXPECT_GT(larger.records().back().seconds, first.records().back().seconds);
}

/// The instrumenter's record counters, or the same three counts tallied
/// from a run's records.
struct RecordCounts {
  std::uint64_t records = 0;
  std::uint64_t truncated = 0;
  std::uint64_t impaired = 0;

  static RecordCounts now() {
    obs::Registry& reg = obs::Registry::global();
    return {reg.counter("instrumenter.records").value(),
            reg.counter("instrumenter.truncated").value(),
            reg.counter("instrumenter.impaired").value()};
  }
  static RecordCounts of(const std::vector<jvm::MethodRecord>& rs) {
    RecordCounts c;
    for (const auto& r : rs) {
      ++c.records;
      if (r.truncated) ++c.truncated;
      if (r.quality >= rapl::MeasurementQuality::kDegraded) ++c.impaired;
    }
    return c;
  }
  RecordCounts since(const RecordCounts& before) const {
    return {records - before.records, truncated - before.truncated,
            impaired - before.impaired};
  }
  bool operator==(const RecordCounts&) const = default;
};

TEST(Profiler, RecordCountersMatchTheRecordsOnEveryPath) {
  // The counters are tallied per run and published once; a completed run,
  // an uncaught exception and a step-limit abort all publish exactly what
  // the run returned. No DRAM register makes every record impaired.
  const auto ok = jlang::Parser::parseProgram("ok.mjava", R"(
    class Main {
      static int id(int v) { return v; }
      static void main(String[] args) { id(id(1)); }
    }
  )");
  const auto throws = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) acc += i;
        return acc;
      }
      static void main(String[] args) {
        int x = work(20) + work(30);
        throw new IllegalStateException("after " + x);
      }
    }
  )");
  const auto spin = jlang::Parser::parseProgram("s.mjava", R"(
    class Main {
      static void spin() { while (true) { int x = 1; } }
      static void main(String[] args) { spin(); }
    }
  )");
  // Runs `run` on a fresh Profiler and returns the counters' deltas,
  // checked against the records the run returned.
  const auto published = [](const char* faultPlan, const auto& run) {
    Profiler prof;
    prof.setFaultSpec(fault::parseFaultPlan(faultPlan));
    const RecordCounts before = RecordCounts::now();
    run(prof);
    const RecordCounts delta = RecordCounts::now().since(before);
    EXPECT_EQ(delta, RecordCounts::of(prof.records()));
    return delta;
  };

  const RecordCounts done =
      published("no-dram", [&ok](Profiler& p) { p.profile(ok); });
  EXPECT_EQ(done.records, 3u);
  EXPECT_EQ(done.impaired, 3u);

  const RecordCounts thrown = published("none", [&throws](Profiler& p) {
    EXPECT_THROW(p.profile(throws), VmError);
  });
  EXPECT_EQ(thrown.records, 3u);  // work x2 and main, all completed
  EXPECT_EQ(thrown.truncated, 0u);

  const RecordCounts cut = published("no-dram", [&spin](Profiler& p) {
    EXPECT_THROW(p.profile(spin, {}, /*maxSteps=*/10'000), VmError);
  });
  EXPECT_EQ(cut.records, 2u);
  EXPECT_EQ(cut.truncated, 2u);
  EXPECT_EQ(cut.impaired, 2u);
}

}  // namespace
}  // namespace jepo::core
