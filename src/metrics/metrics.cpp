#include "metrics/metrics.hpp"

#include <set>

#include "jlang/printer.hpp"
#include "support/strings.hpp"

namespace jepo::metrics {

CodeMetrics computeMetrics(const jlang::Program& program) {
  CodeMetrics out;
  std::set<std::string> classes;
  std::set<std::string> packages;
  for (const auto& unit : program.units) {
    if (!unit.packageName.empty()) packages.insert(unit.packageName);
    for (const auto& imp : unit.imports) classes.insert(imp);
    for (const auto& cls : unit.classes) {
      std::string qualified =
          unit.packageName.empty() ? std::string(cls.name)
                                   : concat(unit.packageName, ".", cls.name);
      classes.insert(std::move(qualified));
      out.attributes += cls.fields.size();
      out.methods += cls.methods.size();
    }
    out.loc += countLines(jlang::printUnit(unit));
  }
  out.dependencies = classes.size();
  out.packages = packages.size();
  return out;
}

}  // namespace jepo::metrics
