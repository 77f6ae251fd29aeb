// Replays every checked-in corpus entry (tests/scenario/corpus/*.json)
// through the full conformance oracle as ordinary ctest cases. The corpus
// is the regression memory of the fuzzing campaigns: every scenario a
// campaign ever minimized (plus hand-picked generator seeds covering each
// topology/workload family) replays on every PR, while the randomized
// campaigns run nightly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/json_io.hpp"
#include "scenario/runner.hpp"
#include "sim/fault.hpp"

namespace rtether::scenario {
namespace {

/// Corpus file names (not paths): gtest prints the parameter into the
/// ctest name, which must not depend on where the checkout lives.
std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTETHER_SCENARIO_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = std::filesystem::path(info.param).stem().string();
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         ::testing::ValuesIn(corpus_files()), test_name);

TEST_P(CorpusReplay, ReplaysGreen) {
  const auto spec = load_scenario(std::string(RTETHER_SCENARIO_CORPUS_DIR) +
                                  "/" + GetParam());
  ASSERT_TRUE(spec.has_value()) << spec.error();
  const auto result = run_scenario(*spec);
  EXPECT_TRUE(result.passed) << spec->summary() << "\n" << result.summary();
}

TEST(CorpusReplay, CorpusIsPopulated) {
  // The corpus must cover each topology family, every fault class (the
  // fault-<class>.json entries), and carry the regression entry for the
  // same-tick EDF arbitration fix the fuzzer forced.
  const auto files = corpus_files();
  EXPECT_GE(files.size(), 20u);
  for (std::size_t i = 0; i < sim::kFaultKindCount; ++i) {
    const std::string tag =
        std::string("fault-") + sim::to_string(static_cast<sim::FaultKind>(i));
    bool covered = false;
    for (const auto& file : files) {
      covered |= file.find(tag) != std::string::npos;
    }
    EXPECT_TRUE(covered) << "corpus lost the " << tag << " entry";
  }
  bool has_regression = false;
  for (const auto& file : files) {
    has_regression |= file.find("same-tick") != std::string::npos;
  }
  EXPECT_TRUE(has_regression)
      << "corpus lost the same-tick EDF inversion regression entry";
}

}  // namespace
}  // namespace rtether::scenario
