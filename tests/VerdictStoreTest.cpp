//===- VerdictStoreTest.cpp - Persistent verdict store tests -----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Robustness of the on-disk verdict store (round-trip, truncation, wrong
// magic/version, config-digest mismatch, concurrent-shard merge) and its
// integration with the ValidationEngine: a second engine loading the store
// produced by a first must replay 100% of verdicts without validating
// anything from scratch, and a mismatched store must be rejected and
// rebuilt, never misused.
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"
#include "driver/VerdictStore.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "support/Log.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace llvmmd;

namespace {

/// A unique path under the test's temp dir, removed on destruction.
class TempFile {
public:
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

ValidationResult makeResult(bool Validated, uint64_t Rewrites,
                            const std::string &Reason = "") {
  ValidationResult R;
  R.Validated = Validated;
  R.Rewrites = Rewrites;
  R.GraphNodes = Rewrites * 3 + 1;
  R.LiveNodes = Rewrites + 1;
  R.SharingMerges = Rewrites / 2;
  R.Iterations = 2;
  R.Microseconds = 123;
  R.Reason = Reason;
  R.EqualOnConstruction = Rewrites == 0;
  R.Unsupported = !Validated && !Reason.empty();
  return R;
}

VerdictMap makeMap(unsigned N, uint64_t Salt = 0) {
  VerdictMap M;
  for (unsigned I = 0; I < N; ++I) {
    VerdictKey K{0x1000 + I + Salt, 0x2000 + I + Salt, 0xc0};
    M.emplace(K, makeResult(I % 3 != 0, I, I % 3 ? "" : "alarm " +
                                                            std::to_string(I)));
  }
  return M;
}

/// Replaces \p Path with \p Bytes. Removing first (rather than truncating
/// in place) avoids the data flush some filesystems force on truncation,
/// which the mutation tests would otherwise pay per case.
void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::remove(Path.c_str());
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.write(Bytes.data(), Bytes.size()));
}

BenchmarkProfile smallProfile() {
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 10;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, RoundTripPreservesEveryField) {
  TempFile F("roundtrip.vstore");
  VerdictMap Saved = makeMap(17);
  std::string Err;
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd1, Saved, &Err), Saved.size())
      << Err;

  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Loaded);
  ASSERT_EQ(LR.Status, VerdictStore::LoadStatus::Loaded) << LR.Message;
  EXPECT_EQ(LR.EntriesInFile, Saved.size());
  EXPECT_EQ(LR.EntriesMerged, Saved.size());
  ASSERT_EQ(Loaded.size(), Saved.size());
  for (const auto &[K, R] : Saved) {
    auto It = Loaded.find(K);
    ASSERT_NE(It, Loaded.end());
    EXPECT_EQ(It->second.Validated, R.Validated);
    EXPECT_EQ(It->second.Unsupported, R.Unsupported);
    EXPECT_EQ(It->second.EqualOnConstruction, R.EqualOnConstruction);
    EXPECT_EQ(It->second.Reason, R.Reason);
    EXPECT_EQ(It->second.Rewrites, R.Rewrites);
    EXPECT_EQ(It->second.GraphNodes, R.GraphNodes);
    EXPECT_EQ(It->second.LiveNodes, R.LiveNodes);
    EXPECT_EQ(It->second.SharingMerges, R.SharingMerges);
    EXPECT_EQ(It->second.Iterations, R.Iterations);
    EXPECT_EQ(It->second.Microseconds, R.Microseconds);
  }
}

TEST(VerdictStoreTest, SerializationIsDeterministic) {
  // Same map, two hash tables with different insertion order: identical
  // bytes, so stores diff cleanly and CI cache keys are stable.
  VerdictMap A = makeMap(32);
  VerdictMap B;
  std::vector<std::pair<VerdictKey, ValidationResult>> Entries(A.begin(),
                                                               A.end());
  for (auto It = Entries.rbegin(); It != Entries.rend(); ++It)
    B.emplace(It->first, It->second);
  EXPECT_EQ(VerdictStore::serialize(0xd1, A), VerdictStore::serialize(0xd1, B));
}

TEST(VerdictStoreTest, MissingFileIsNoFileNotError) {
  VerdictMap Map;
  VerdictStore::LoadResult LR =
      VerdictStore::load(::testing::TempDir() + "/does-not-exist.vstore", 0,
                         Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::NoFile);
  EXPECT_TRUE(Map.empty());
}

//===----------------------------------------------------------------------===//
// Rejection: truncation, magic, version, config digest
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, TruncatedFileIsRejectedWholesale) {
  TempFile F("truncated.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(9));
  // Every possible truncation point: header, mid-entry, mid-reason. None
  // may load, and none may leave partial entries in the map.
  for (size_t Keep : {size_t(0), size_t(7), size_t(39), Bytes.size() / 2,
                      Bytes.size() - 1}) {
    writeBytes(F.path(), Bytes.substr(0, Keep));
    VerdictMap Map;
    VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
    EXPECT_NE(LR.Status, VerdictStore::LoadStatus::Loaded) << "kept " << Keep;
    EXPECT_TRUE(Map.empty()) << "partial merge after truncation at " << Keep;
  }
}

TEST(VerdictStoreTest, TrailingGarbageIsCorrupt) {
  TempFile F("trailing.vstore");
  writeBytes(F.path(), VerdictStore::serialize(0xd1, makeMap(3)) + "junk");
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);
}

TEST(VerdictStoreTest, WrongMagicIsRejected) {
  TempFile F("magic.vstore");
  writeBytes(F.path(), "definitely not a verdict store, but long enough "
                       "to hold a whole header worth of bytes.");
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::BadMagic);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, WrongFormatVersionIsRejected) {
  TempFile F("version.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(3));
  // The u32 format version sits right after the u64 magic.
  Bytes[8] = static_cast<char>(VerdictStore::FormatVersion + 1);
  writeBytes(F.path(), Bytes);
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::BadVersion);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, MismatchedConfigDigestIsRejected) {
  TempFile F("digest.vstore");
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, makeMap(5)), ~0ull);
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd2, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::ConfigMismatch);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, BitFlipInPayloadIsCorrupt) {
  TempFile F("bitflip.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(5));
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);
}

//===----------------------------------------------------------------------===//
// Merge semantics
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, LoadMergesWithoutClobberingMemory) {
  TempFile F("merge-load.vstore");
  VerdictMap OnDisk = makeMap(4);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, OnDisk), ~0ull);

  // The in-memory map already holds one of the keys with a different
  // verdict; load must keep the in-memory one and add only the others.
  VerdictMap Map;
  VerdictKey Shared = OnDisk.begin()->first;
  Map.emplace(Shared, makeResult(true, 999));
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  ASSERT_TRUE(LR.loaded());
  EXPECT_EQ(LR.EntriesMerged, OnDisk.size() - 1);
  EXPECT_EQ(Map.size(), OnDisk.size());
  EXPECT_EQ(Map.at(Shared).Rewrites, 999u);
}

TEST(VerdictStoreTest, ConcurrentShardsSavingTheSamePathMerge) {
  TempFile F("merge-save.vstore");
  // Two engines (shards) proved disjoint verdicts and save to one path in
  // some order; the store must end up with the union, and for the one
  // contested key the last writer wins.
  VerdictMap ShardA = makeMap(6, /*Salt=*/0);
  VerdictMap ShardB = makeMap(6, /*Salt=*/100);
  VerdictKey Contested{0xbeef, 0xf00d, 0xc0};
  ShardA.emplace(Contested, makeResult(true, 1));
  ShardB.emplace(Contested, makeResult(true, 2));

  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, ShardA), ~0ull);
  // B's save reports the merged size, not just its own entries.
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd1, ShardB),
            ShardA.size() + ShardB.size() - 1);

  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), ShardA.size() + ShardB.size() - 1);
  for (const auto &[K, R] : ShardA)
    if (!(K == Contested))
      EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);
  for (const auto &[K, R] : ShardB)
    EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);
  EXPECT_EQ(Loaded.at(Contested).Rewrites, 2u) << "last writer must win";
}

TEST(VerdictStoreTest, SaveOverMismatchedStoreRebuildsIt) {
  TempFile F("rebuild.vstore");
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, makeMap(8)), ~0ull);
  // A save under a different digest must not merge the incompatible
  // entries — it atomically replaces the store.
  VerdictMap Fresh = makeMap(2, /*Salt=*/500);
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd2, Fresh), Fresh.size());
  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd2, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), Fresh.size());
}

//===----------------------------------------------------------------------===//
// Engine integration: cross-process warm replay
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, SecondEngineReplaysEverythingFromTheStore) {
  TempFile F("engine.vstore");
  ValidationReport First, Second;
  uint64_t ExpectedHits = 0;

  {
    // "Process" 1: cold run, saves on report.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    First = Engine.run(*M, getPaperPipeline()).Report;
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
    EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
    EXPECT_EQ(Engine.cacheStats().StoreSaved, Engine.cacheStats().Entries);
    EXPECT_EQ(First.warmHits(), 0u);
    ExpectedHits = Engine.cacheStats().Misses;
  }
  {
    // "Process" 2: fresh Context and engine, same input; every verdict must
    // replay warm — the acceptance criterion's 100% replay rate.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, ExpectedHits);
    Second = Engine.run(*M, getPaperPipeline()).Report;
    EXPECT_EQ(Engine.cacheStats().Misses, 0u) << "replay rate below 100%";
    // Every hit this process saw came from the store (in-batch duplicates
    // also resolve against the warm cache entry on a fully-warm run).
    EXPECT_GE(Engine.cacheStats().Hits, ExpectedHits);
    EXPECT_EQ(Engine.cacheStats().WarmHits, Engine.cacheStats().Hits);
    EXPECT_EQ(Second.warmHits(), Second.cacheHits());
    EXPECT_EQ(Second.warmHits(),
              Second.transformed() - Second.skippedIdentical());
  }

  // Verdicts and statistics are identical across processes; only the
  // replay-provenance flags (cache_hit/warm_hit) may differ.
  ASSERT_EQ(First.Functions.size(), Second.Functions.size());
  for (size_t I = 0; I < First.Functions.size(); ++I) {
    const FunctionReportEntry &A = First.Functions[I];
    const FunctionReportEntry &B = Second.Functions[I];
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.FingerprintOrig, B.FingerprintOrig) << A.Name;
    EXPECT_EQ(A.FingerprintOpt, B.FingerprintOpt) << A.Name;
    EXPECT_EQ(A.Validated, B.Validated) << A.Name;
    EXPECT_EQ(A.Result.Rewrites, B.Result.Rewrites) << A.Name;
    EXPECT_EQ(A.Result.GraphNodes, B.Result.GraphNodes) << A.Name;
    EXPECT_EQ(A.Result.SharingMerges, B.Result.SharingMerges) << A.Name;
    EXPECT_EQ(A.Result.Reason, B.Result.Reason) << A.Name;
  }
}

TEST(VerdictStoreTest, EngineRejectsAndRebuildsMismatchedStore) {
  TempFile F("engine-mismatch.vstore");
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
    ASSERT_GT(Engine.cacheStats().StoreSaved, 0u);
  }
  {
    // Different fixpoint budget => different store config digest. The store
    // must be rejected on load (not replayed!) and rebuilt on save.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.Rules.MaxIterations = 16;
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    Engine.run(*M, getPaperPipeline());
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
    EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
  }
  {
    // And the rebuilt store now serves the new configuration warm.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.Rules.MaxIterations = 16;
    ValidationEngine Engine(C);
    EXPECT_GT(Engine.cacheStats().StoreLoaded, 0u);
    Engine.run(*M, getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().Misses, 0u);
  }
}

TEST(VerdictStoreTest, CacheLoadOffStartsColdAndCacheSaveOffWritesNothing) {
  TempFile F("engine-flags.vstore");
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.CacheSave = false;
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
  }
  EXPECT_FALSE(std::ifstream(F.path()).good()) << "CacheSave=false wrote";
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
  }
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.CacheLoad = false;
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    EXPECT_GT(Engine.cacheStats().Misses, 0u) << "CacheLoad=false replayed";
  }
}

TEST(VerdictStoreTest, SuiteRunsShareTheStoreAcrossProcesses) {
  TempFile F("suite.vstore");
  auto MakeModules = [](Context &Ctx, std::vector<std::unique_ptr<Module>> &Own)
      -> std::vector<const Module *> {
    Own.push_back(generateBenchmark(Ctx, smallProfile()));
    BenchmarkProfile P2 = getProfile("hmmer");
    P2.FunctionCount = 6;
    Own.push_back(generateBenchmark(Ctx, P2));
    return {Own[0].get(), Own[1].get()};
  };
  std::string FirstJson;
  {
    Context Ctx;
    std::vector<std::unique_ptr<Module>> Own;
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    SuiteRun Run = Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline());
    FirstJson = suiteToJSON(Run.Report);
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
  }
  {
    Context Ctx;
    std::vector<std::unique_ptr<Module>> Own;
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    SuiteRun Run = Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().Misses, 0u) << "suite replay below 100%";
    EXPECT_EQ(Run.Report.warmHits(), Run.Report.cacheHits());
    EXPECT_EQ(Run.Report.warmHits(),
              Run.Report.transformed() - Run.Report.skippedIdentical());
  }
}

//===----------------------------------------------------------------------===//
// Fleet-shard API: threaded union, header inspection, offline merge
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, ManyThreadsSavingOnePathUnionLosslessly) {
  TempFile F("threads.vstore");
  // The fleet's failure mode: K workers checkpointing to one path at once.
  // Each thread owns a disjoint key range plus a contested shared range;
  // the advisory lock + merge-on-save must union every disjoint entry
  // (losing one means a future run re-proves a verdict it already had) and
  // resolve each contested key to SOME writer's value, never a torn one.
  constexpr unsigned K = 8;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < K; ++T)
    Threads.emplace_back([&, T] {
      VerdictMap Mine = makeMap(12, /*Salt=*/T * 1000);
      for (unsigned I = 0; I < 4; ++I) {
        VerdictKey Shared{0x777700 + I, 0x888800 + I, 0xc0};
        Mine.emplace(Shared, makeResult(true, /*Rewrites=*/T + 1));
      }
      EXPECT_NE(VerdictStore::save(F.path(), 0xd1, Mine), ~0ull);
    });
  for (std::thread &T : Threads)
    T.join();

  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), K * 12 + 4);
  for (unsigned T = 0; T < K; ++T)
    for (const auto &[Key, R] : makeMap(12, T * 1000))
      EXPECT_EQ(Loaded.at(Key).Rewrites, R.Rewrites);
  for (unsigned I = 0; I < 4; ++I) {
    VerdictKey Shared{0x777700 + I, 0x888800 + I, 0xc0};
    uint64_t Got = Loaded.at(Shared).Rewrites;
    EXPECT_GE(Got, 1u);
    EXPECT_LE(Got, K);
  }
}

TEST(VerdictStoreTest, PeekHeaderReportsWithoutReplaying) {
  TempFile F("peek.vstore");
  VerdictMap M = makeMap(9);
  ASSERT_NE(VerdictStore::save(F.path(), 0xabcd, M), ~0ull);

  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, VerdictStore::FormatVersion);
  EXPECT_EQ(HI.ConfigDigest, 0xabcdu);
  EXPECT_EQ(HI.VerdictEntries, M.size());
  EXPECT_EQ(HI.TriageEntries, 0u);
  EXPECT_GT(HI.FileBytes, 0u);

  // Inspection is still honest about damage: a flipped payload byte is
  // Corrupt (the checksum is verified), and a missing file is NoFile.
  std::ifstream In(F.path(), std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);
  EXPECT_EQ(VerdictStore::peekHeader(F.path()).Status,
            VerdictStore::LoadStatus::Corrupt);

  EXPECT_EQ(VerdictStore::peekHeader(F.path() + ".nope").Status,
            VerdictStore::LoadStatus::NoFile);
}

//===----------------------------------------------------------------------===//
// Sharded layout: index round-trip, lazy reader lookups, version gate
//===----------------------------------------------------------------------===//

namespace {

/// A map large enough to force multiple shards, spread over \p Modules
/// distinct Config values (one per "module").
VerdictMap makeMultiModuleMap(unsigned Modules, unsigned PerModule) {
  VerdictMap M;
  for (unsigned Mod = 0; Mod < Modules; ++Mod)
    for (unsigned I = 0; I < PerModule; ++I) {
      VerdictKey K{0x1000 + I, 0x2000 + I, 0xc000 + Mod * 0x9e37};
      M.emplace(K, makeResult(I % 2 == 0, I, I % 2 ? "" : "r"));
    }
  return M;
}

} // namespace

TEST(VerdictStoreTest, ShardedLayoutRoundTripsAndReportsShards) {
  TempFile F("sharded.vstore");
  // 40 modules x 20 entries = 800 entries: multiple shards by construction.
  VerdictMap Big = makeMultiModuleMap(40, 20);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, Big), ~0ull);

  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, 3u);
  EXPECT_GT(HI.ShardCount, 1u) << "800 entries must split into shards";
  EXPECT_EQ(HI.VerdictEntries, Big.size());

  // Shard payloads start on page boundaries: the file is strictly larger
  // than the raw entry bytes but every entry still round-trips.
  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded()) << LR.Message;
  ASSERT_EQ(Loaded.size(), Big.size());
  for (const auto &[K, R] : Big) {
    auto It = Loaded.find(K);
    ASSERT_NE(It, Loaded.end());
    EXPECT_EQ(It->second.Rewrites, R.Rewrites);
    EXPECT_EQ(It->second.Reason, R.Reason);
  }
}

TEST(VerdictStoreTest, ReaderLookupTouchesOnlyTheKeysShard) {
  TempFile F("reader.vstore");
  VerdictMap Big = makeMultiModuleMap(40, 20);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, Big), ~0ull);

  VerdictStore::LoadResult LR;
  auto Reader = VerdictStoreReader::open(F.path(), 0xd1, &LR);
  ASSERT_NE(Reader, nullptr) << LR.Message;
  ASSERT_GT(Reader->numShards(), 1u);
  EXPECT_EQ(Reader->shardsMaterialized(), 0u) << "open must not parse shards";
  EXPECT_EQ(Reader->verdictEntriesInFile(), Big.size());

  // Probing one module's keys materializes exactly one shard...
  VerdictKey First = Big.begin()->first;
  const ValidationResult *R = Reader->lookup(First);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Rewrites, Big.at(First).Rewrites);
  EXPECT_EQ(Reader->shardsMaterialized(), 1u);
  VerdictKey SameModule = First;
  SameModule.FpA ^= 0xdead; // same Config => same shard, missing key
  EXPECT_EQ(Reader->lookup(SameModule), nullptr);
  EXPECT_EQ(Reader->shardsMaterialized(), 1u);

  // ...and a full sweep finds everything without a single wrong answer.
  for (const auto &[K, Want] : Big) {
    const ValidationResult *Got = Reader->lookup(K);
    ASSERT_NE(Got, nullptr);
    EXPECT_EQ(Got->Rewrites, Want.Rewrites);
  }
  EXPECT_LE(Reader->shardsMaterialized(), Reader->numShards());

  // Digest gating matches load(): a mismatched open fails cleanly.
  EXPECT_EQ(VerdictStoreReader::open(F.path(), 0xd2, &LR), nullptr);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::ConfigMismatch);
}

TEST(VerdictStoreTest, ReaderNeverServesFromACorruptShard) {
  TempFile F("reader-corrupt.vstore");
  VerdictMap Big = makeMultiModuleMap(40, 20);
  std::string Bytes = VerdictStore::serialize(0xd1, Big);
  // Flip one byte in the last shard's payload (the file ends inside it).
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);

  // load() rejects the whole file...
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);

  // ...while the reader still opens (the index is intact) and serves
  // healthy shards, but every lookup landing in the damaged shard misses
  // rather than returning a possibly-torn verdict.
  VerdictStore::LoadResult LR;
  auto Reader = VerdictStoreReader::open(F.path(), 0xd1, &LR);
  ASSERT_NE(Reader, nullptr) << LR.Message;
  unsigned Hits = 0, Misses = 0;
  for (const auto &[K, Want] : Big) {
    const ValidationResult *Got = Reader->lookup(K);
    if (!Got) {
      ++Misses;
      continue;
    }
    ++Hits;
    EXPECT_EQ(Got->Rewrites, Want.Rewrites);
  }
  EXPECT_GT(Hits, 0u) << "healthy shards must still serve";
  EXPECT_GT(Misses, 0u) << "the corrupt shard must refuse to serve";
}

namespace {

/// A retired version-2 store holding nothing: magic, version 2, reserved
/// word, config digest, zero entries, payload hash, empty triage section.
std::string v2StoreBytes(uint64_t ConfigDigest) {
  std::string Payload;
  appendU64LE(Payload, 0);
  std::string Out;
  appendU64LE(Out, 0x0152545356444d4cULL); // store magic
  appendU32LE(Out, 2);
  appendU32LE(Out, 0);
  appendU64LE(Out, ConfigDigest);
  appendU64LE(Out, 0);
  appendU64LE(Out, hashBytes(Payload.data(), Payload.size()));
  return Out + Payload;
}

/// Routes log lines into Lines for the scope's lifetime.
struct LogCapture {
  std::string Lines;
  LogCapture() { setLogSinkForTesting(&Lines); }
  ~LogCapture() { setLogSinkForTesting(nullptr); }
};

} // namespace

TEST(VerdictStoreTest, VersionTwoStoresAreRejectedAndRebuiltAsV3) {
  TempFile F("v2.vstore");
  EngineConfig C;
  C.CachePath = F.path();
  const uint64_t Digest = verdictStoreConfigDigest(C.Rules);
  writeBytes(F.path(), v2StoreBytes(Digest));

  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), Digest, Map).Status,
            VerdictStore::LoadStatus::BadVersion);
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(VerdictStore::peekHeader(F.path()).Status,
            VerdictStore::LoadStatus::BadVersion);
  VerdictStore::LoadResult LR;
  EXPECT_EQ(VerdictStoreReader::open(F.path(), Digest, &LR), nullptr);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::BadVersion);

  // An engine over it says so, proves everything cold and saves a v3 store.
  LogCapture Log;
  Context Ctx;
  auto M = generateBenchmark(Ctx, smallProfile());
  ValidationEngine Engine(C);
  EXPECT_NE(Log.Lines.find("rejected, rebuilding"), std::string::npos)
      << Log.Lines;
  EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
  Engine.run(*M, getPaperPipeline());
  EXPECT_GT(Engine.cacheStats().Misses, 0u);
  EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, VerdictStore::FormatVersion);
  EXPECT_EQ(HI.VerdictEntries, Engine.cacheStats().Entries);
}

//===----------------------------------------------------------------------===//
// Hostile bytes: seeded mutations of a multi-shard store
//===----------------------------------------------------------------------===//

namespace {

/// Triage entries spread over \p Modules Config values, with every string
/// and counter field populated so a torn entry cannot compare equal.
TriageMap makeMultiModuleTriage(unsigned Modules, unsigned PerModule) {
  TriageMap T;
  for (unsigned Mod = 0; Mod < Modules; ++Mod)
    for (unsigned I = 0; I < PerModule; ++I) {
      VerdictKey K{0x5000 + I, 0x6000 + I, 0xc000 + Mod * 0x9e37};
      StoredTriage ST;
      ST.OptionsDigest = 0x0b7 + Mod;
      TriageResult &R = ST.Result;
      R.Classification = static_cast<TriageClassification>(I % 4);
      R.InputsTried = I;
      R.Reduced = I % 2;
      R.OrigInstsBefore = 10 + I;
      R.WitnessInputs = {"i32 " + std::to_string(I), "i32 7"};
      R.WitnessDivergence = "ret " + std::to_string(Mod);
      R.ReducedOrig = "define i32 @f() { ret i32 0 }";
      R.MissingRule = I % 3 ? "" : "canon.cmp-swap";
      T.emplace(K, ST);
    }
  return T;
}

/// The entries of \p From whose keys are in \p Keys, so a set of reader
/// hits can be compared with the original byte-for-byte.
template <typename MapT, typename KeysT>
MapT restrictTo(const MapT &From, const KeysT &Keys) {
  MapT Out;
  for (const auto &KV : Keys)
    Out.emplace(KV.first, From.at(KV.first));
  return Out;
}

/// Checks the two reader properties over a possibly damaged \p Path: it
/// refuses to open with a rejection status, or every lookup — each
/// original key plus keys it never held — returns null or an entry equal
/// to the original.
void expectReaderSafe(const std::string &Path, uint64_t Digest,
                      const VerdictMap &V, const TriageMap &T,
                      const std::string &What) {
  VerdictStore::LoadResult LR;
  std::unique_ptr<VerdictStoreReader> R =
      VerdictStoreReader::open(Path, Digest, &LR);
  if (!R) {
    EXPECT_NE(LR.Status, VerdictStore::LoadStatus::Loaded) << What;
    return;
  }
  VerdictMap GotV;
  TriageMap GotT;
  for (const auto &KV : V)
    if (const ValidationResult *Got = R->lookup(KV.first))
      GotV.emplace(KV.first, *Got);
  for (const auto &KV : T)
    if (const StoredTriage *Got = R->lookupTriage(KV.first))
      GotT.emplace(KV.first, *Got);
  for (unsigned I = 0; I < 8; ++I) {
    VerdictKey Absent{0xabab00 + I, 0xcdcd00 + I, 0xc000 + I * 0x9e37};
    EXPECT_EQ(R->lookup(Absent), nullptr) << What;
    EXPECT_EQ(R->lookupTriage(Absent), nullptr) << What;
  }
  TriageMap WantT = restrictTo(T, GotT);
  EXPECT_EQ(VerdictStore::serialize(Digest, GotV, &GotT),
            VerdictStore::serialize(Digest, restrictTo(V, GotV), &WantT))
      << What << ": a lookup returned an entry the store never held";
}

/// Checks the load() property over a possibly damaged \p Path: Loaded with
/// maps equal to the original, or a rejection that leaves both maps
/// exactly as they were.
void expectLoadSafe(const std::string &Path, uint64_t Digest,
                    const std::string &Original, const std::string &What) {
  const VerdictKey Sentinel{0x5e, 0x5e, 0x5e};
  VerdictMap V;
  TriageMap T;
  V.emplace(Sentinel, makeResult(true, 1));
  T.emplace(Sentinel, StoredTriage());
  VerdictStore::LoadResult LR = VerdictStore::load(Path, Digest, V, &T);
  if (LR.loaded()) {
    V.erase(Sentinel);
    T.erase(Sentinel);
    EXPECT_EQ(VerdictStore::serialize(Digest, V, &T), Original) << What;
    return;
  }
  EXPECT_EQ(V.size(), 1u) << What << ": rejected load merged entries";
  EXPECT_EQ(T.size(), 1u) << What << ": rejected load merged triage";
}

} // namespace

TEST(VerdictStoreTest, SeededMutationsNeverYieldAWrongEntry) {
  TempFile F("mutate.vstore");
  const uint64_t Digest = 0xd1;
  const VerdictMap V = makeMultiModuleMap(40, 20);
  const TriageMap T = makeMultiModuleTriage(40, 2);
  const std::string Bytes = VerdictStore::serialize(Digest, V, &T);
  VerdictStore::HeaderInfo HI;
  {
    writeBytes(F.path(), Bytes);
    std::vector<VerdictStore::ShardStats> Shards =
        VerdictStore::peekShards(F.path(), &HI);
    ASSERT_TRUE(HI.ok()) << HI.Message;
    ASSERT_GT(Shards.size(), 1u);
  }
  const size_t IndexEnd = 48 + HI.ShardCount * 40;
  LogCapture Quiet; // every damaged shard the reader reads warns
  auto Check = [&](const std::string &Mutated, const std::string &What) {
    writeBytes(F.path(), Mutated);
    expectLoadSafe(F.path(), Digest, Bytes, What);
    expectReaderSafe(F.path(), Digest, V, T, What);
  };

  // Truncation at every page boundary and at seeded random offsets.
  for (size_t Keep = 0; Keep < Bytes.size();
       Keep += VerdictStore::PageBytes)
    Check(Bytes.substr(0, Keep), "truncated to " + std::to_string(Keep));
  SplitMixRng R(0x7a11);
  for (unsigned I = 0; I < 32; ++I) {
    size_t Keep = R.below(Bytes.size());
    Check(Bytes.substr(0, Keep), "truncated to " + std::to_string(Keep));
  }

  // Appended junk.
  for (unsigned I = 0; I < 8; ++I) {
    std::string Junk(1 + R.below(5000), '\0');
    for (char &C : Junk)
      C = static_cast<char>(R.next());
    Check(Bytes + Junk, "junk of " + std::to_string(Junk.size()));
  }

  // Bit flips in the header, the index and the payload, round-robin, for
  // at least 60 rounds and then until the time budget is spent.
  auto Start = std::chrono::steady_clock::now();
  for (unsigned Round = 0;
       Round < 60 || std::chrono::steady_clock::now() - Start <
                         std::chrono::milliseconds(1500);
       ++Round) {
    size_t Lo = 0, Hi = 48;
    if (Round % 3 == 1)
      Lo = 48, Hi = IndexEnd;
    else if (Round % 3 == 2)
      Lo = IndexEnd, Hi = Bytes.size();
    std::string Mutated = Bytes;
    std::string What = "flipped";
    for (unsigned Flips = 1 + R.below(3); Flips; --Flips) {
      size_t At = Lo + R.below(Hi - Lo);
      Mutated[At] ^= static_cast<char>(1u << R.below(8));
      What += " @" + std::to_string(At);
    }
    Check(Mutated, What);
  }
}

TEST(VerdictStoreTest, StoreTruncatedUnderAnOpenReaderOnlyMisses) {
  TempFile F("truncate-open.vstore");
  const uint64_t Digest = 0xd1;
  const VerdictMap V = makeMultiModuleMap(40, 20);
  const TriageMap T = makeMultiModuleTriage(40, 2);
  const std::string Bytes = VerdictStore::serialize(Digest, V, &T);
  SplitMixRng R(0x0be7);
  std::vector<size_t> Sizes = {VerdictStore::PageBytes, 0};
  for (unsigned I = 0; I < 6; ++I)
    Sizes.push_back(R.below(Bytes.size()));
  LogCapture Quiet;
  for (size_t Keep : Sizes) {
    writeBytes(F.path(), Bytes);
    VerdictStore::LoadResult LR;
    std::unique_ptr<VerdictStoreReader> Reader =
        VerdictStoreReader::open(F.path(), Digest, &LR);
    ASSERT_NE(Reader, nullptr) << LR.Message;
    // Shrink the very file the reader has open, in place.
    std::filesystem::resize_file(F.path(), Keep);
    unsigned Hits = 0;
    for (const auto &[K, Want] : V)
      if (const ValidationResult *Got = Reader->lookup(K)) {
        ++Hits;
        EXPECT_EQ(VerdictStore::serialize(Digest, {{K, *Got}}),
                  VerdictStore::serialize(Digest, {{K, Want}}));
      }
    for (const auto &[K, Want] : T)
      if (const StoredTriage *Got = Reader->lookupTriage(K))
        EXPECT_EQ(Got->Result.WitnessDivergence, Want.Result.WitnessDivergence);
    if (Keep <= VerdictStore::PageBytes)
      EXPECT_EQ(Hits, 0u) << "every shard lies past byte " << Keep;
  }
}

TEST(VerdictStoreTest, IndexCountsThatLieAreMalformedNotAllocated) {
  // A hand-crafted file whose checksums all hold but whose index claims
  // 2^40 verdicts in shard 0: the parser must reject the shard, not size
  // a table for the claim.
  TempFile F("lying-counts.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(5));
  auto Patch = [&](size_t At, uint64_t V) {
    std::string LE;
    appendU64LE(LE, V);
    Bytes.replace(At, 8, LE);
  };
  const uint64_t Claim = uint64_t(1) << 40;
  Patch(24, Claim); // header verdict total
  Patch(64, Claim); // shard 0's verdict count
  Patch(40, hashBytes(Bytes.data() + 48, 40)); // index hash
  writeBytes(F.path(), Bytes);

  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::Corrupt) << LR.Message;
  EXPECT_EQ(LR.Message, "malformed shard 0");
  EXPECT_TRUE(Map.empty());
  LogCapture Quiet;
  auto Reader = VerdictStoreReader::open(F.path(), 0xd1);
  ASSERT_NE(Reader, nullptr);
  EXPECT_EQ(Reader->lookup(makeMap(5).begin()->first), nullptr);
}

//===----------------------------------------------------------------------===//
// Engine over a store with one damaged shard
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, EngineReprovesOnlyTheDamagedShard) {
  TempFile F("engine-damaged.vstore");
  // The global-folding rules digest each module's globals into its keys,
  // so each module's verdicts form their own shard.
  EngineConfig C;
  C.CachePath = F.path();
  C.Rules.Mask = RS_All;
  const uint64_t Digest = verdictStoreConfigDigest(C.Rules);
  auto MakeModules = [](Context &Ctx,
                        std::vector<std::unique_ptr<Module>> &Own) {
    std::vector<const Module *> Mods;
    for (const char *Name : {"sqlite", "hmmer", "sjeng", "bzip2"}) {
      BenchmarkProfile P = getProfile(Name);
      P.FunctionCount = 6;
      Own.push_back(generateBenchmark(Ctx, P));
      Mods.push_back(Own.back().get());
    }
    return Mods;
  };

  SuiteReport Cold;
  {
    Context Ctx;
    std::vector<std::unique_ptr<Module>> Own;
    ValidationEngine Engine(C);
    Cold = Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline()).Report;
  }
  // Unrelated verdicts push the store to several shards.
  VerdictMap Filler = makeMultiModuleMap(30, 20);
  ASSERT_NE(VerdictStore::save(F.path(), Digest, Filler), ~0ull);

  // Find a shard holding some modules' verdicts but not all of them: flip
  // one payload byte per shard and ask the reader which modules' keys miss.
  VerdictMap Proved;
  ASSERT_TRUE(VerdictStore::load(F.path(), Digest, Proved).loaded());
  std::vector<VerdictKey> ModuleKeys; // one key per distinct module Config
  for (const auto &KV : Proved)
    if (!Filler.count(KV.first) &&
        std::none_of(ModuleKeys.begin(), ModuleKeys.end(),
                     [&](const VerdictKey &K) {
                       return K.Config == KV.first.Config;
                     }))
      ModuleKeys.push_back(KV.first);
  ASSERT_GT(ModuleKeys.size(), 1u);
  std::ifstream In(F.path(), std::ios::binary);
  const std::string Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  In.close();
  std::string Damaged;
  unsigned DamagedShard = 0, Lost = 0;
  std::vector<VerdictStore::ShardStats> Shards =
      VerdictStore::peekShards(F.path());
  for (unsigned S = 0; S < Shards.size() && Damaged.empty(); ++S) {
    if (Shards[S].Bytes == 0)
      continue;
    std::string Mutated = Bytes;
    Mutated[Shards[S].Offset + Shards[S].Bytes / 2] ^= 0x10;
    writeBytes(F.path(), Mutated);
    auto Reader = VerdictStoreReader::open(F.path(), Digest);
    ASSERT_NE(Reader, nullptr);
    Lost = 0;
    for (const VerdictKey &K : ModuleKeys)
      Lost += Reader->lookup(K) == nullptr;
    if (Lost > 0 && Lost < ModuleKeys.size()) {
      Damaged = Mutated;
      DamagedShard = S;
    }
  }
  ASSERT_FALSE(Damaged.empty()) << "no shard separates the modules";
  writeBytes(F.path(), Damaged);

  LogCapture Log;
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Own;
  C.CacheSave = false;
  ValidationEngine Engine(C);
  SuiteReport Warm =
      Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline()).Report;

  // One warning, naming the shard, when the engine first reads it.
  const std::string Named = "shard " + std::to_string(DamagedShard);
  size_t At = Log.Lines.find(Named + " checksum mismatch");
  ASSERT_NE(At, std::string::npos) << Log.Lines;
  EXPECT_EQ(Log.Lines.find(Named, At + 1), std::string::npos) << Log.Lines;
  EXPECT_NE(Log.Lines.find("re-proved"), std::string::npos) << Log.Lines;

  // Modules in the damaged shard are re-proved, verdict for verdict equal
  // to the cold run; every other module replays warm.
  unsigned ReprovedModules = 0;
  ASSERT_EQ(Warm.Modules.size(), Cold.Modules.size());
  for (size_t Mi = 0; Mi < Warm.Modules.size(); ++Mi) {
    const ValidationReport &W = Warm.Modules[Mi], &K = Cold.Modules[Mi];
    unsigned Replayable = W.transformed() - W.skippedIdentical();
    if (W.warmHits() == 0 && Replayable > 0)
      ++ReprovedModules;
    else
      EXPECT_EQ(W.warmHits(), Replayable) << W.ModuleName;
    ASSERT_EQ(W.Functions.size(), K.Functions.size());
    for (size_t Fi = 0; Fi < W.Functions.size(); ++Fi) {
      const FunctionReportEntry &A = W.Functions[Fi], &B = K.Functions[Fi];
      EXPECT_EQ(A.Validated, B.Validated) << A.Name;
      EXPECT_EQ(A.Result.Rewrites, B.Result.Rewrites) << A.Name;
      EXPECT_EQ(A.Result.GraphNodes, B.Result.GraphNodes) << A.Name;
      EXPECT_EQ(A.Result.SharingMerges, B.Result.SharingMerges) << A.Name;
      EXPECT_EQ(A.Result.Reason, B.Result.Reason) << A.Name;
    }
  }
  EXPECT_EQ(ReprovedModules, Lost);
  EXPECT_GT(Engine.cacheStats().Misses, 0u);
  EXPECT_GT(Engine.cacheStats().WarmHits, 0u);
}

TEST(VerdictStoreTest, ShardPathNamingIsStable) {
  // Offline tools (store_tool) and the fleet must agree on this forever.
  EXPECT_EQ(VerdictStore::shardPath("/x/base.vstore", 0),
            "/x/base.vstore.shard0");
  EXPECT_EQ(VerdictStore::shardPath("rel", 12), "rel.shard12");
}

TEST(VerdictStoreTest, MergePathsUnionsAndRejectsMismatchedInputs) {
  TempFile A("merge-a.vstore"), B("merge-b.vstore"), C("merge-c.vstore");
  TempFile Out("merge-out.vstore"), Out2("merge-out2.vstore");
  VerdictMap MA = makeMap(5, 0), MB = makeMap(5, 9000);
  VerdictKey Contested{0xbeef, 0xf00d, 0xc0};
  MA.emplace(Contested, makeResult(true, 11));
  MB.emplace(Contested, makeResult(true, 22));
  ASSERT_NE(VerdictStore::save(A.path(), 0xd1, MA), ~0ull);
  ASSERT_NE(VerdictStore::save(B.path(), 0xd1, MB), ~0ull);
  ASSERT_NE(VerdictStore::save(C.path(), 0xd2, makeMap(3, 50)), ~0ull);

  // Union with earlier-inputs-win on the contested key; a missing input is
  // an empty shard, not an error (a cold fleet worker never wrote one).
  std::string Err;
  EXPECT_EQ(VerdictStore::mergePaths(
                {A.path(), B.path(), A.path() + ".gone"}, Out.path(), 0xd1,
                &Err),
            MA.size() + MB.size() - 1)
      << Err;
  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(Out.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.at(Contested).Rewrites, 11u) << "earlier input must win";

  // A digest-mismatched input poisons the whole merge: verdicts proven
  // under different rules must never union.
  EXPECT_EQ(VerdictStore::mergePaths({A.path(), C.path()}, Out2.path(), 0xd1,
                                     &Err),
            ~0ull);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(VerdictStore::peekHeader(Out2.path()).Status,
            VerdictStore::LoadStatus::NoFile)
      << "a failed merge must not write a partial store";
}
