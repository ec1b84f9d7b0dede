//===- store_tool.cpp - Verdict store inspection and offline merge ------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Offline companion to the persistent VerdictStore: inspect store files
// (including the fleet's per-worker shards) without an engine, and union
// shards into one store without starting a fleet — e.g. to salvage the
// shards of a crashed fleet, or to ship a CI store built on N machines.
//
//   $ ./store_tool --dump PATH...
//       One line per file: format version, config digest, verdict/triage
//       entry counts, file size — or the rejection reason (bad magic,
//       version mismatch, corrupt payload). Exit 0 iff every file loaded.
//
//   $ ./store_tool --merge A,B,C -o OUT
//       Union the inputs into OUT. The config digest is taken from the
//       first loadable input; any input with a different digest makes the
//       merge fail (verdicts proven under different rules must never
//       union). Earlier inputs win per key. Exit 0 on success.
//
//   $ ./store_tool --stats PATH...
//       Per-shard occupancy of each store: entries, triage entries,
//       payload bytes and checksum health per shard, plus the index-level
//       totals — the view that answers "is one module's shard hogging the
//       file" and "which shard did the corruption hit". Exit 0 iff every
//       file (and every shard) is healthy.
//
//===----------------------------------------------------------------------===//

#include "driver/VerdictStore.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace llvmmd;

namespace {

const char *statusName(VerdictStore::LoadStatus S) {
  switch (S) {
  case VerdictStore::LoadStatus::Loaded:
    return "ok";
  case VerdictStore::LoadStatus::NoFile:
    return "no-file";
  case VerdictStore::LoadStatus::BadMagic:
    return "bad-magic";
  case VerdictStore::LoadStatus::BadVersion:
    return "bad-version";
  case VerdictStore::LoadStatus::ConfigMismatch:
    return "config-mismatch";
  case VerdictStore::LoadStatus::Corrupt:
    return "corrupt";
  }
  return "unknown";
}

int dump(const std::vector<std::string> &Paths) {
  int Rc = 0;
  for (const std::string &P : Paths) {
    VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(P);
    if (HI.ok()) {
      std::printf("%s: v%u digest %016llx verdicts %llu triage %llu "
                  "(%llu bytes)\n",
                  P.c_str(), HI.Version,
                  static_cast<unsigned long long>(HI.ConfigDigest),
                  static_cast<unsigned long long>(HI.VerdictEntries),
                  static_cast<unsigned long long>(HI.TriageEntries),
                  static_cast<unsigned long long>(HI.FileBytes));
    } else {
      std::printf("%s: %s%s%s\n", P.c_str(), statusName(HI.Status),
                  HI.Message.empty() ? "" : " — ", HI.Message.c_str());
      Rc = 1;
    }
  }
  return Rc;
}

int merge(const std::vector<std::string> &Inputs, const std::string &Out) {
  // The digest comes from the first input that is a loadable store; every
  // other input must match it, which mergePaths enforces (a digest
  // mismatch loads as ConfigMismatch and fails the whole merge — partial
  // unions would silently drop verdicts).
  uint64_t Digest = 0;
  bool HaveDigest = false;
  for (const std::string &P : Inputs) {
    VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(P);
    if (HI.ok()) {
      Digest = HI.ConfigDigest;
      HaveDigest = true;
      break;
    }
    if (HI.Status != VerdictStore::LoadStatus::NoFile) {
      std::fprintf(stderr, "error: %s: %s%s%s\n", P.c_str(),
                   statusName(HI.Status), HI.Message.empty() ? "" : " — ",
                   HI.Message.c_str());
      return 1;
    }
  }
  if (!HaveDigest) {
    std::fprintf(stderr, "error: no loadable input store\n");
    return 1;
  }
  std::string Error;
  uint64_t Written = VerdictStore::mergePaths(Inputs, Out, Digest, &Error);
  if (Written == ~0ull) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s: %llu verdict entries (digest %016llx, %zu inputs)\n",
              Out.c_str(), static_cast<unsigned long long>(Written),
              static_cast<unsigned long long>(Digest), Inputs.size());
  return 0;
}

int stats(const std::vector<std::string> &Paths) {
  int Rc = 0;
  for (const std::string &P : Paths) {
    VerdictStore::HeaderInfo HI;
    std::vector<VerdictStore::ShardStats> Shards =
        VerdictStore::peekShards(P, &HI);
    if (Shards.empty()) {
      std::printf("%s: %s%s%s\n", P.c_str(), statusName(HI.Status),
                  HI.Message.empty() ? "" : " — ", HI.Message.c_str());
      Rc = 1;
      continue;
    }
    std::printf("%s: v%u digest %016llx, %u shard(s), verdicts %llu "
                "triage %llu (%llu bytes)\n",
                P.c_str(), HI.Version,
                static_cast<unsigned long long>(HI.ConfigDigest),
                HI.ShardCount,
                static_cast<unsigned long long>(HI.VerdictEntries),
                static_cast<unsigned long long>(HI.TriageEntries),
                static_cast<unsigned long long>(HI.FileBytes));
    for (size_t S = 0; S < Shards.size(); ++S) {
      const VerdictStore::ShardStats &SS = Shards[S];
      std::printf("  shard %zu: verdicts %llu triage %llu, %llu bytes "
                  "@ offset %llu%s\n",
                  S, static_cast<unsigned long long>(SS.VerdictEntries),
                  static_cast<unsigned long long>(SS.TriageEntries),
                  static_cast<unsigned long long>(SS.Bytes),
                  static_cast<unsigned long long>(SS.Offset),
                  SS.ChecksumOk ? "" : " CORRUPT");
      if (!SS.ChecksumOk)
        Rc = 1;
    }
    if (HI.Status != VerdictStore::LoadStatus::Loaded)
      Rc = 1;
  }
  return Rc;
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Comma = S.find(',', Start);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Start)
      Out.push_back(S.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

int usage() {
  std::fprintf(stderr, "usage: store_tool --dump PATH...\n"
                       "       store_tool --merge A,B,C -o OUT\n"
                       "       store_tool --stats PATH...\n");
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  if (std::strcmp(argv[1], "--dump") == 0) {
    std::vector<std::string> Paths(argv + 2, argv + argc);
    if (Paths.empty())
      return usage();
    return dump(Paths);
  }

  if (std::strcmp(argv[1], "--stats") == 0) {
    std::vector<std::string> Paths(argv + 2, argv + argc);
    if (Paths.empty())
      return usage();
    return stats(Paths);
  }

  if (std::strcmp(argv[1], "--merge") == 0) {
    if (argc != 5 || std::strcmp(argv[3], "-o") != 0)
      return usage();
    std::vector<std::string> Inputs = splitCommas(argv[2]);
    if (Inputs.empty())
      return usage();
    return merge(Inputs, argv[4]);
  }

  return usage();
}
