//===- ModuleReaderTest.cpp - The one module reader under stress ----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// Whole-module properties of the reader (importLLModule behind loadModule):
//   - seeded mutations of the printed suite and the fixture pair end in a
//     module-level error with a line, or in a module whose every body
//     verifies: no mutated text reaches the passes ill-formed;
//   - the printed suite survives a trip through LLVM's own `opt -S`
//     unchanged, fingerprint for fingerprint (skipped without opt-14).
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <unistd.h>

using namespace llvmmd;

namespace {

struct NamedText {
  std::string Name;
  std::string Text;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The printed text of the 12 suite modules.
std::vector<NamedText> printedSuite() {
  Context Ctx;
  std::vector<NamedText> Out;
  for (const BenchmarkProfile &P : getPaperSuite())
    Out.push_back({P.Name, printModule(*generateBenchmark(Ctx, P))});
  return Out;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// One seeded mutation: swap, drop or duplicate a line, flip a byte, or
/// truncate. Returns a short description for failure messages.
std::string mutate(std::string &Text, std::mt19937_64 &Rng) {
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  unsigned Kind = static_cast<unsigned>(Rng() % 5);
  if (Kind == 3) {
    size_t At = Pick(Text.size());
    char Old = Text[At];
    Text[At] = static_cast<char>(Rng() & 0xff);
    return "flip byte " + std::to_string(At) + " (was '" + Old + "')";
  }
  if (Kind == 4) {
    size_t At = Pick(Text.size());
    Text.resize(At);
    return "truncate at " + std::to_string(At);
  }
  std::vector<std::string> Lines = splitLines(Text);
  size_t A = Pick(Lines.size()), B = Pick(Lines.size());
  std::string What;
  if (Kind == 0) {
    std::swap(Lines[A], Lines[B]);
    What = "swap lines " + std::to_string(A + 1) + " and " +
           std::to_string(B + 1);
  } else if (Kind == 1) {
    Lines.erase(Lines.begin() + static_cast<long>(A));
    What = "drop line " + std::to_string(A + 1);
  } else {
    Lines.insert(Lines.begin() + static_cast<long>(B), Lines[A]);
    What = "copy line " + std::to_string(A + 1) + " before line " +
           std::to_string(B + 1);
  }
  Text = joinLines(Lines);
  return What;
}

TEST(ModuleReaderTest, SeededMutationsEndInAnErrorOrVerifiedBodies) {
  std::vector<NamedText> Bases = printedSuite();
  const std::string Fixtures =
      std::string(LLVMMD_SOURCE_DIR) + "/tests/fixtures/llvm/";
  for (const char *F : {"kernels_O0.ll", "kernels_opt.ll"})
    Bases.push_back({F, readFile(Fixtures + F)});

  // Bases are drawn in inverse proportion to their size, so the 480 KB
  // gcc module costs no more test time than the 14 KB lbm one; every base
  // still gets mutated.
  std::vector<uint64_t> Cumulative;
  uint64_t Total = 0;
  for (const NamedText &B : Bases)
    Cumulative.push_back(Total += (uint64_t(1) << 32) / B.Text.size());

  constexpr unsigned Seeds = 3, CasesPerSeed = 1000;
  unsigned Errors = 0, Demoted = 0, Failures = 0;
  for (unsigned Seed = 1; Seed <= Seeds; ++Seed) {
    std::mt19937_64 Rng(Seed);
    for (unsigned Case = 0; Case < CasesPerSeed; ++Case) {
      uint64_t Draw = Rng() % Total;
      const NamedText &Base =
          Bases[std::upper_bound(Cumulative.begin(), Cumulative.end(), Draw) -
                Cumulative.begin()];
      ModuleSpec Spec;
      Spec.From = ModuleSpec::Source::Inline;
      Spec.Value = Base.Text;
      Spec.Name = Base.Name;
      std::string What = mutate(Spec.Value, Rng);
      std::string Where = "seed " + std::to_string(Seed) + " case " +
                          std::to_string(Case) + ": " + Base.Name + ", " +
                          What;
      Context Ctx;
      LoadResult R = loadModule(Ctx, Spec);
      if (!R) {
        ++Errors;
        if (R.ErrorLine == 0 && ++Failures <= 10)
          ADD_FAILURE() << Where << ": error without a line: " << R.Error;
        continue;
      }
      Demoted += R.Modules[0].Unsupported.size();
      for (const Function *F : R.Modules[0].M->definedFunctions()) {
        std::vector<std::string> Msgs;
        if (!verifyFunction(*F, Msgs) && ++Failures <= 10)
          ADD_FAILURE() << Where << ": " << Msgs.front();
      }
    }
  }
  EXPECT_EQ(Failures, 0u);
  // Both outcomes occur: the corpus is not all-error or all-clean.
  EXPECT_GT(Errors, 0u);
  EXPECT_GT(Demoted, 0u);
}

TEST(ModuleReaderTest, OptIdentityRoundTripKeepsEveryFunction) {
  if (std::system("command -v opt-14 >/dev/null 2>&1") != 0)
    GTEST_SKIP() << "opt-14 not on PATH: printed suite -> opt-14 "
                    "-passes=verify -> reader round trip not run";
  std::string Dir = ::testing::TempDir() + "llvmmd-optrt-XXXXXX";
  ASSERT_NE(mkdtemp(Dir.data()), nullptr);
  Context Ctx;
  EngineConfig Cfg;
  Cfg.Threads = 2;
  ValidationEngine Engine(Cfg);
  unsigned Functions = 0, Transformed = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    std::unique_ptr<Module> Orig = generateBenchmark(Ctx, P);
    const std::string In = Dir + "/" + P.Name + ".ll";
    const std::string Out = Dir + "/" + P.Name + ".opt.ll";
    std::ofstream(In) << printModule(*Orig);
    const std::string Cmd = "opt-14 -S -opaque-pointers -passes=verify " +
                            In + " -o " + Out;
    ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;
    LoadResult R = loadModule(Ctx, parseModuleSpec(Out));
    ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
    EXPECT_TRUE(R.Modules[0].Unsupported.empty()) << P.Name;
    ValidationReport Rep = Engine.validateModules(*Orig, *R.Modules[0].M);
    Functions += Rep.total();
    Transformed += Rep.transformed();
    std::remove(In.c_str());
    std::remove(Out.c_str());
  }
  rmdir(Dir.c_str());
  EXPECT_EQ(Functions, 468u);
  EXPECT_EQ(Transformed, 0u);
}

} // namespace
