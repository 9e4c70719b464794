#include "replay.hpp"

#include <memory>
#include <vector>

#include "energy/machine.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jepod/protocol.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "jvm/interpreter.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace jp = jepo::jepod;

std::string_view payloadOf(std::string_view response) noexcept {
  const std::size_t at = response.find("\"cached\":");
  return at == std::string_view::npos ? std::string_view{}
                                      : response.substr(at);
}

Replayer::Replayer(std::size_t cacheBytes) : cache_(cacheBytes) {}

std::string Replayer::run(const std::string& line, std::uint64_t job) {
  const Tracer::Scope jobSpan("jepod.job", job);
  jp::JobRequest req;
  {
    const Tracer::Scope span("jepod.request_parse", job);
    req = jp::parseRequest(line);
  }
  JEPO_REQUIRE(req.faultPlan.empty() && req.tier.empty(),
               "replay covers clean full-tier jobs only");

  std::shared_ptr<const jp::CachedProgram> compiled;
  std::uint64_t hash = 0;
  {
    const Tracer::Scope span("jepod.cache_lookup", job);
    hash = jp::sourceHash(req.source);
    compiled = cache_.get(hash, req.source);
  }
  const bool cached = compiled != nullptr;
  if (!cached) {
    auto entry = std::make_shared<jp::CachedProgram>();
    {
      const Tracer::Scope span("jlang.parse", job);
      entry->program = jepo::jlang::Parser::parseProgram("<jepod>", req.source);
    }
    entry->source = req.source;
    entry->hash = hash;
    entry->bytes = req.source.size();
    {
      const Tracer::Scope span("jlang.resolve", job);
      jepo::jlang::ensureResolved(entry->program);
    }
    const Tracer::Scope span("jepod.cache_insert", job);
    compiled = cache_.put(std::move(entry));
  }
  const jepo::jlang::Program& program = compiled->program;

  if (req.command == "suggest") {
    std::string view;
    {
      const Tracer::Scope span("jepo.suggest", job);
      const jepo::core::SuggestionEngine engine;
      view = jepo::core::renderOptimizerView(engine.analyzeProgram(program));
    }
    const Tracer::Scope span("jepod.render", job);
    return jp::renderSuggestResponse(req, cached, view);
  }
  if (req.command == "optimize") {
    jepo::core::OptimizeResult result;
    {
      const Tracer::Scope span("jepo.optimize", job);
      result = jepo::core::Optimizer().optimize(program);
    }
    std::vector<jp::OptimizeChange> changes;
    changes.reserve(result.changes.size());
    for (const auto& c : result.changes) {
      changes.push_back({c.className, c.line, c.description});
    }
    std::string source;
    {
      const Tracer::Scope span("jlang.print", job);
      for (const auto& unit : result.program.units) {
        source += jepo::jlang::printUnit(unit);
      }
    }
    const Tracer::Scope span("jepod.render", job);
    return jp::renderOptimizeResponse(req, cached, changes, source);
  }
  JEPO_REQUIRE(req.command == "profile", "unknown command " + req.command);
  jp::ProfileResult result;
  {
    const Tracer::Scope span("jepo.profile", job);
    jepo::core::Profiler profiler;
    profiler.setHeapLimit(static_cast<std::size_t>(req.heapLimit));
    profiler.setSeed(req.seed);
    profiler.profile(program, req.mainClass, req.maxSteps);
    result.stdoutText = profiler.programOutput();
    result.records = profiler.records();
  }
  const Tracer::Scope span("jepod.render", job);
  return jp::renderProfileResponse(req, cached, result);
}

void Replayer::runBare(const std::string& line, std::uint64_t job) {
  const jp::JobRequest req = jp::parseRequest(line);
  std::shared_ptr<const jp::CachedProgram> compiled =
      cache_.get(jp::sourceHash(req.source), req.source);
  if (compiled == nullptr) {  // evicted since run(): compile, untimed
    auto entry = std::make_shared<jp::CachedProgram>();
    entry->program = jepo::jlang::Parser::parseProgram("<jepod>", req.source);
    jepo::jlang::ensureResolved(entry->program);
    compiled = std::move(entry);
  }
  const Tracer::Scope span("jvm.run_bare", job);
  jepo::energy::SimMachine machine;
  jepo::jvm::Interpreter interp(compiled->program, machine);
  interp.setHeapLimit(static_cast<std::size_t>(req.heapLimit));
  interp.setMaxSteps(req.maxSteps);
  interp.runMain(req.mainClass);
}

}  // namespace perfbench
