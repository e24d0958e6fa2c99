// Seeded Verilog corpus for the lint workload, with ground truth.
//
// The generator writes clean modules (flat, hierarchical, deeply but
// legally nested) and modules with planted defects, and records for each
// input the VSD-Lxxx codes it planted.  A clean input must lint and
// elaborate without an Error-severity finding; a defect input must report
// every planted code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsdbench {

struct LintCase {
  std::string name;
  std::string source;
  std::vector<std::string> planted;  // codes the generator planted
};

/// Codes the defect generator plants, one generator per code.
const std::vector<std::string>& planted_codes();

/// The seeded corpus: flat and hierarchical modules of varied size, deep
/// legal nesting, and defect modules (every code in planted_codes(), some
/// modules carrying two).  Same seed, same corpus.
std::vector<LintCase> make_lint_corpus(std::uint64_t seed);

/// The two hostile inputs, independent of any seed: 20k nested
/// parentheses and 100k nested `if ... begin`.
std::vector<LintCase> hostile_inputs();

/// Building blocks, exposed for the generator's tests.
std::string nested_parens_module(const std::string& name, int depth);
std::string nested_if_module(const std::string& name, int depth);

}  // namespace vsdbench
