// Text pieces of the deterministic JSON writers: the metrics registry dump,
// the detection alarm/guardrail logs and the bench reports.
#pragma once

#include <string>
#include <string_view>

namespace pravega {

/// `s` as the inside of a JSON string: quote and backslash escaped, other
/// control characters as \uXXXX.
std::string jsonEscape(std::string_view s);

/// `v` in %.6g. No locale is ever set in this codebase, so the text is the
/// same for equal inputs, which is all the byte-identical contract needs.
std::string fmtDouble(double v);

}  // namespace pravega
