// google-benchmark micro suite for the MiniJava toolchain: lexing, parsing,
// printing, interpretation throughput, suggestion analysis and the
// optimizer — the costs a JEPO user pays per keystroke / per run.
#include <benchmark/benchmark.h>

#include "bench_micro.hpp"
#include "corpus/corpus.hpp"
#include "demo_project.hpp"
#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepod/program_cache.hpp"
#include "jepod/protocol.hpp"
#include "jlang/lexer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "jvm/gc.hpp"
#include "jvm/interpreter.hpp"

namespace {

using namespace jepo;

std::string arithmeticLoopSource(long n) {
  return "class Main { static void main(String[] args) {\n"
         "int acc = 0;\n"
         "for (int i = 0; i < " + std::to_string(n) + "; i++) acc += i & 7;\n"
         "System.out.println(acc);\n} }";
}

const char* const kMethodCallsSource = R"(
    class Main {
      static int add(int a, int b) { return a + b; }
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 2000; i++) acc = add(acc, i);
        System.out.println(acc);
      }
    }
  )";

// Instance fields + virtual calls + construction: the shapes the resolved
// engines accelerate with flat layouts and monomorphic inline caches.
const char* const kObjectsAndCallsSource = R"(
    class Counter {
      int value;
      int step;
      Counter(int step) { this.step = step; }
      int bump() { value = value + step; return value; }
    }
    class Main {
      static void main(String[] args) {
        Counter c = new Counter(3);
        int acc = 0;
        for (int i = 0; i < 1000; i++) acc = acc + c.bump();
        System.out.println(acc);
      }
    }
  )";

void BM_Lex(benchmark::State& state) {
  const std::string src = bench::kDemoProjectSource;
  for (auto _ : state) {
    jlang::Arena decoded;
    jlang::Lexer lexer(src, decoded);
    benchmark::DoNotOptimize(lexer.tokenize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const std::string src = bench::kDemoProjectSource;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jlang::Parser::parseProgram("demo.mjava", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Parse);

// The cache-miss path under eviction churn: each iteration parses and
// resolves a printed corpus source and puts it into a ProgramCache with a
// 256 KiB budget, which evicts (and frees) older programs as a daemon
// does under never-repeating sources. BM_Parse never reaches that
// teardown through the cache.
void BM_ParseChurn(benchmark::State& state) {
  const jlang::Program project = corpus::generateScaledCorpus(
      ml::ClassifierKind::kNaiveBayes, 0.03, 1, nullptr);
  std::vector<std::string> sources;
  for (const auto& unit : project.units) {
    sources.push_back(jlang::printUnit(unit));
  }
  jepod::ProgramCache cache(256u << 10);
  std::uint64_t puts = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string& source = sources[puts % sources.size()];
    auto entry = std::make_shared<jepod::CachedProgram>();
    entry->program = jlang::Parser::parseProgram("churn.mjava", source);
    jlang::ensureResolved(entry->program);
    entry->hash = puts++;  // a fresh key: every put inserts
    entry->bytes = source.size();
    benchmark::DoNotOptimize(cache.put(std::move(entry)));
    bytes += static_cast<std::int64_t>(source.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ParseChurn);

void BM_Print(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("demo.mjava", bench::kDemoProjectSource);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jlang::printUnit(prog.units.front()));
  }
}
BENCHMARK(BM_Print);

void BM_InterpretArithmeticLoop(benchmark::State& state) {
  const long n = state.range(0);
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", arithmeticLoopSource(n));
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
    benchmark::DoNotOptimize(machine.sample().packageJoules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InterpretArithmeticLoop)->Arg(1000)->Arg(10000);

void BM_BcvmArithmeticLoop(benchmark::State& state) {
  const long n = state.range(0);
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", arithmeticLoopSource(n));
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
    benchmark::DoNotOptimize(machine.sample().packageJoules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BcvmArithmeticLoop)->Arg(1000)->Arg(10000);

void BM_InterpretMethodCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kMethodCallsSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_InterpretMethodCalls);

void BM_BcvmMethodCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kMethodCallsSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_BcvmMethodCalls);

void BM_InterpretObjectsAndCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kObjectsAndCallsSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_InterpretObjectsAndCalls);

void BM_BcvmObjectsAndCalls(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kObjectsAndCallsSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_BcvmObjectsAndCalls);

// Allocation churn under a heap limit: 2000 iterations × (object + array)
// per run, collected by the mark-compact GC every ~1024 live objects. The
// interesting number is the per-iteration cost staying flat — a grow-forever
// heap would scale with total allocations, not live bytes.
const char* const kHeapChurnSource = R"(
    class Node {
      int a;
      int b;
      Node(int x) { a = x; b = x * 2 + 1; }
      int sum() { return a + b; }
    }
    class Main {
      static void main(String[] args) {
        Node keep = new Node(7);
        int chk = 0;
        for (int i = 0; i < 2000; i++) {
          Node n = new Node(i);
          int[] buf = new int[16];
          buf[i % 16] = n.sum();
          chk = chk + buf[i % 16] + keep.a;
        }
        System.out.println(chk);
      }
    }
  )";

void BM_InterpretHeapChurn(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kHeapChurnSource);
  for (auto _ : state) {
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.setHeapLimit(1024);
    interp.runMain();
    benchmark::DoNotOptimize(interp.gc().collections());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_InterpretHeapChurn);

void BM_BcvmHeapChurn(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("m.mjava", kHeapChurnSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  for (auto _ : state) {
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.setHeapLimit(1024);
    vm.runMain();
    benchmark::DoNotOptimize(vm.gc().collections());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_BcvmHeapChurn);

void BM_SuggestionEngine(benchmark::State& state) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("demo.mjava", bench::kDemoProjectSource);
  core::SuggestionEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.analyzeUnit(prog.units.front()));
  }
}
BENCHMARK(BM_SuggestionEngine);

void BM_Optimizer(benchmark::State& state) {
  const jlang::Program prog = jlang::Parser::parseProgram(
      "demo.mjava", bench::kDemoProjectSource);
  core::Optimizer optimizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(prog));
  }
}
BENCHMARK(BM_Optimizer);

void BM_MeterChargeOverhead(benchmark::State& state) {
  energy::SimMachine machine;
  for (auto _ : state) {
    machine.charge(energy::Op::kIntAlu, 1);
    // Inside the loop: every charge must reach the meter's memory, or the
    // compiler folds the whole loop into one add.
    benchmark::DoNotOptimize(machine);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MeterChargeOverhead);

// perfbench's call-kernel program: 2000 calls of a one-line static method,
// so a profiled run is 2001 records (the calls and main) over little work.
const char* const kCallKernelSource = R"(
    class CallKernel {
      static int step(int x) {
        return (x * 31 + 7) % 1009;
      }
      static void main(String[] args) {
        int v = 1;
        for (int i = 0; i < 2000; i++) {
          v = step(v);
        }
        System.out.println("calls=" + v);
      }
    }
  )";
constexpr std::size_t kCallKernelRecords = 2001;

// The probe on its own: the call-kernel program run bare on the bytecode
// VM, and profiled by core::Profiler at full tier. main() turns the two
// rows into the probe's cost per record.
void BM_InstrumentedCall(benchmark::State& state, bool profiled) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("kernel.mjava", kCallKernelSource);
  const jbc::CompiledProgram code = jbc::compile(prog);
  for (auto _ : state) {
    if (profiled) {
      core::Profiler profiler;
      profiler.profile(code);
      if (profiler.records().size() != kCallKernelRecords) {
        state.SkipWithError("unexpected record count");
        break;
      }
      benchmark::DoNotOptimize(profiler.records().data());
    } else {
      energy::SimMachine machine;
      jbc::BytecodeVm vm(code, machine);
      vm.runMain();
      benchmark::DoNotOptimize(vm.output().data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCallKernelRecords));
}
BENCHMARK_CAPTURE(BM_InstrumentedCall, bare, false);
BENCHMARK_CAPTURE(BM_InstrumentedCall, profiled, true);

// The jepod render layer on its own: one profile response of 2000 records
// (the method-calls kernel's add() executions, as the profiler measures
// them), rendered to its wire line.
void BM_RenderProfileResponse(benchmark::State& state) {
  core::Profiler profiler;
  profiler.profile(jlang::Parser::parseProgram("calls.mjava",
                                               kMethodCallsSource));
  jepod::ProfileResult result;
  result.stdoutText = profiler.programOutput();
  result.records = profiler.takeRecords();
  result.records.resize(2000);  // drop main's record, completed last
  jepod::JobRequest req;
  req.id = "bench-1";
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string line = jepod::renderProfileResponse(req, true, result);
    bytes = line.size();
    benchmark::DoNotOptimize(line.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes));
}
BENCHMARK(BM_RenderProfileResponse);

}  // namespace

int main(int argc, char** argv) {
  // Derived engine-pair rows: for every BM_Interpret<X> with a BM_Bcvm<X>
  // sibling, record the tree-interpreter / bytecode-VM wall-time ratio.
  const auto enginePairs = [](jepo::bench::BenchReport& report,
                              const std::vector<jepo::bench::CapturedRun>&
                                  runs) {
    const std::string treePrefix = "BM_Interpret";
    const std::string bcvmPrefix = "BM_Bcvm";
    bool first = true;
    for (const auto& tree : runs) {
      if (tree.name.compare(0, treePrefix.size(), treePrefix) != 0) continue;
      const std::string suffix = tree.name.substr(treePrefix.size());
      for (const auto& bcvm : runs) {
        if (bcvm.name != bcvmPrefix + suffix ||
            bcvm.realSecondsPerIter <= 0.0) {
          continue;
        }
        const double ratio = tree.realSecondsPerIter / bcvm.realSecondsPerIter;
        report.addRow({{"name", "EnginePair/" + suffix},
                       {"treeSecondsPerIter", tree.realSecondsPerIter},
                       {"bcvmSecondsPerIter", bcvm.realSecondsPerIter},
                       {"speedupBcvmOverTree", ratio}});
        if (first) {
          std::printf("\n-- tree interpreter vs bytecode VM --\n");
          first = false;
        }
        std::printf("%-36s tree=%.3e bcvm=%.3e bcvm speedup=%.2fx\n",
                    suffix.c_str(), tree.realSecondsPerIter,
                    bcvm.realSecondsPerIter, ratio);
        break;
      }
    }
  };
  // The probe's row: what profiling adds to a bare run, per record.
  const auto probeCost = [](jepo::bench::BenchReport& report,
                            const std::vector<jepo::bench::CapturedRun>&
                                runs) {
    double bare = 0.0;
    double profiled = 0.0;
    for (const auto& run : runs) {
      if (run.name == "BM_InstrumentedCall/bare") bare = run.realSecondsPerIter;
      if (run.name == "BM_InstrumentedCall/profiled") {
        profiled = run.realSecondsPerIter;
      }
    }
    if (bare <= 0.0 || profiled <= 0.0) return;
    const double ns = (profiled - bare) * 1e9 / kCallKernelRecords;
    report.addRow({{"name", "InstrumentedCall/probe"},
                   {"bareSecondsPerIter", bare},
                   {"profiledSecondsPerIter", profiled},
                   {"probeNsPerRecord", ns}});
    std::printf("\n-- probe cost (call-kernel, full tier) --\n"
                "%.1f ns per record above the bare run\n",
                ns);
  };
  return jepo::bench::microMain(
      "bench_vm_micro", argc, argv,
      [&](jepo::bench::BenchReport& report,
          const std::vector<jepo::bench::CapturedRun>& runs) {
        enginePairs(report, runs);
        probeCost(report, runs);
      });
}
