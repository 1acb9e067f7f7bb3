// model_fuzzer — hostile bytes as a persisted model file.
//
// The header-sniffing AnyModel loader under VerifyMode::kStrict: malformed
// text must throw DataError (ParseError for declared-size violations —
// *before* any allocation sized by the header), and whatever parses must
// survive the full analysis:: static verifier. An accepted model is then
// scored: predict_batch over a fixed 9-row block holding NaN and ±Inf must
// agree bit for bit with scalar predict on every row, which runs the
// packed inference form of trees and forests on every accepted input. A
// std::logic_error (HDD_ASSERT) or sanitizer report here means a parser or
// kernel invariant broke.
#include "fuzz/harness.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/model_io.h"
#include "core/scorer.h"

namespace hdd::fuzz {

namespace {

void check_batch_matches_scalar(const core::SampleScorer& scorer) {
  constexpr float kValues[] = {0.0f,
                               1.0f,
                               -1.0f,
                               0.5f,
                               1e30f,
                               -1e30f,
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity()};
  constexpr std::size_t kRows = std::size(kValues);
  const auto width = static_cast<std::size_t>(scorer.num_features());
  std::vector<float> xs(kRows * width);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      xs[r * width + c] = kValues[(r + c) % kRows];
    }
  }
  std::vector<double> out(kRows);
  scorer.predict_batch(xs, out);
  for (std::size_t r = 0; r < kRows; ++r) {
    const double one =
        scorer.predict(std::span<const float>(xs.data() + r * width, width));
    // NaN outputs (an MLP fed NaN) need only agree on being NaN.
    HDD_ASSERT_MSG((std::isnan(one) && std::isnan(out[r])) ||
                       std::memcmp(&one, &out[r], sizeof one) == 0,
                   "predict_batch disagrees with predict");
  }
}

}  // namespace

int fuzz_model(const std::uint8_t* data, std::size_t size) {
  // A real model file the daemon would load tops out well under the store's
  // 1 MiB generation-record cap; larger inputs only slow the fuzzer down.
  constexpr std::size_t kMaxInput = 1u << 20;
  if (size > kMaxInput) size = kMaxInput;
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  core::LoadOptions opt;
  opt.verify = core::VerifyMode::kStrict;
  try {
    const auto scorer = core::make_model_scorer(core::load_model(is, opt));
    check_batch_matches_scalar(*scorer);
  } catch (const DataError&) {
    // Malformed or verifier-rejected input: the expected outcome.
  } catch (const ConfigError&) {
    // Structurally impossible parameters: also a structured rejection.
  }
  return 0;
}

}  // namespace hdd::fuzz

#ifdef HDD_FUZZ_TARGET
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return hdd::fuzz::fuzz_model(data, size);
}
#endif
