//===- VerdictStore.cpp - Persistent cross-process verdict store --------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// v3 on-disk layout (all integers little-endian, see support/Hashing.h):
//
//   header   u64 magic           "LMDVSTR\x01"
//            u32 format version  VerdictStore::FormatVersion
//            u32 shard count     S (>= 1)
//            u64 config digest   verdictStoreConfigDigest at save time
//            u64 verdict total   sum of the index's verdict counts
//            u64 triage total    sum of the index's triage counts
//            u64 index hash      FNV-1a over the S * 40 index bytes
//   index    S records, 40 bytes each:
//            u64 offset          absolute, PageBytes-aligned
//            u64 bytes           shard payload size (padding excluded)
//            u64 verdict count, u64 triage count
//            u64 payload hash    FNV-1a over the shard payload
//   shards   at their offsets, zero-padded up to the next shard; the file
//            ends exactly at the last shard's final payload byte, so both
//            truncation and appended garbage break the size equation.
//
// Entries are partitioned by hashing the key's Config field (which folds in
// the per-module globals digest), so one module's verdicts form one shard
// and a reader probing for one module touches one shard's pages. Layout is
// fully deterministic: shard count derives from the entry count, offsets
// are forced to the canonical packing, entries sort by key within a shard.
//
// Shard payload:  <verdict entries> <triage entries>  (counts in the index)
//   per verdict entry:
//            u64 fpA, u64 fpB, u64 config
//            u8  flags           bit0 Validated, bit1 Unsupported,
//                                bit2 EqualOnConstruction
//            u64 graph nodes, live nodes, rewrites, sharing merges,
//                iterations, microseconds
//            u32 reason length + raw bytes
//   per triage entry:
//            u64 fpA, u64 fpB, u64 config, u64 options digest
//            u8  classification
//            u8  flags           bit0 Reduced, bit1 ReduceMinimal,
//                                bit2 GapRan, bit3 GapDiverged,
//                                bit4 ClosedByAllRules
//            u32 inputs tried, inputs skipped, reduce validations,
//                missing-rule mask
//            u64 orig/opt insts before, orig/opt insts after
//            u32 witness-input count + per input (u32 length + bytes)
//            6 strings (u32 length + bytes each): witness divergence,
//                reduced orig, reduced opt, gap node a, gap node b,
//                missing rule
//
// Any other format version is rejected as BadVersion and rebuilt on save.
//
//===----------------------------------------------------------------------===//

#include "driver/VerdictStore.h"

#include "normalize/Rules.h"
#include "support/Hashing.h"
#include "support/Log.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

using namespace llvmmd;

size_t VerdictKeyHash::operator()(const VerdictKey &K) const {
  uint64_t H = hashCombine(K.FpA, K.FpB);
  H = hashCombine(H, K.Config);
  return static_cast<size_t>(H);
}

uint64_t llvmmd::verdictStoreConfigDigest(const RuleConfig &Rules) {
  uint64_t H = hashCombine(VerdictStore::SemanticsSalt, Rules.Mask);
  H = hashCombine(H, Rules.MaxIterations);
  return H;
}

namespace {

constexpr uint64_t StoreMagic = 0x0152545356444d4cULL; // "LMDVSTR\x01" LE
// magic + version + shard count + digest + verdict total + triage total +
// index hash.
constexpr size_t HeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr size_t IndexRecordSize = 8 + 8 + 8 + 8 + 8;

size_t alignToPage(size_t N) {
  return (N + VerdictStore::PageBytes - 1) & ~(VerdictStore::PageBytes - 1);
}

/// Deterministic shard count for a store holding \p Entries entries total:
/// a power of two targeting ~128 entries per shard, clamped to [1, 64] so
/// small stores stay one page of index + one shard and huge ones do not
/// drown in padding.
uint32_t shardCountFor(size_t Entries) {
  size_t Want = (Entries + 127) / 128;
  uint32_t S = 1;
  while (S < Want && S < 64)
    S <<= 1;
  return S;
}

/// Which shard a key lives in. Keyed on Config only: the per-module globals
/// digest folds into Config, so all of one module's entries land together.
uint32_t shardFor(uint64_t Config, uint32_t ShardCount) {
  return static_cast<uint32_t>(hashCombine(0x9e3779b97f4a7c15ULL, Config) &
                               (ShardCount - 1));
}

enum ResultFlags : uint8_t {
  RF_Validated = 1u << 0,
  RF_Unsupported = 1u << 1,
  RF_EqualOnConstruction = 1u << 2,
};

void appendEntry(std::string &Out, const VerdictKey &K,
                 const ValidationResult &R) {
  appendU64LE(Out, K.FpA);
  appendU64LE(Out, K.FpB);
  appendU64LE(Out, K.Config);
  uint8_t Flags = (R.Validated ? RF_Validated : 0) |
                  (R.Unsupported ? RF_Unsupported : 0) |
                  (R.EqualOnConstruction ? RF_EqualOnConstruction : 0);
  Out.push_back(static_cast<char>(Flags));
  appendU64LE(Out, R.GraphNodes);
  appendU64LE(Out, R.LiveNodes);
  appendU64LE(Out, R.Rewrites);
  appendU64LE(Out, R.SharingMerges);
  appendU64LE(Out, R.Iterations);
  appendU64LE(Out, R.Microseconds);
  appendU32LE(Out, static_cast<uint32_t>(R.Reason.size()));
  Out.append(R.Reason);
}

enum TriageFlags : uint8_t {
  TF_Reduced = 1u << 0,
  TF_ReduceMinimal = 1u << 1,
  TF_GapRan = 1u << 2,
  TF_GapDiverged = 1u << 3,
  TF_ClosedByAllRules = 1u << 4,
};

void appendTriageEntry(std::string &Out, const VerdictKey &K,
                       const StoredTriage &T) {
  appendU64LE(Out, K.FpA);
  appendU64LE(Out, K.FpB);
  appendU64LE(Out, K.Config);
  appendU64LE(Out, T.OptionsDigest);
  const TriageResult &R = T.Result;
  Out.push_back(static_cast<char>(R.Classification));
  uint8_t Flags = (R.Reduced ? TF_Reduced : 0) |
                  (R.ReduceMinimal ? TF_ReduceMinimal : 0) |
                  (R.GapRan ? TF_GapRan : 0) |
                  (R.GapDiverged ? TF_GapDiverged : 0) |
                  (R.ClosedByAllRules ? TF_ClosedByAllRules : 0);
  Out.push_back(static_cast<char>(Flags));
  appendU32LE(Out, R.InputsTried);
  appendU32LE(Out, R.InputsSkipped);
  appendU32LE(Out, R.ReduceValidations);
  appendU32LE(Out, R.MissingRuleMask);
  appendU64LE(Out, R.OrigInstsBefore);
  appendU64LE(Out, R.OptInstsBefore);
  appendU64LE(Out, R.OrigInstsAfter);
  appendU64LE(Out, R.OptInstsAfter);
  appendU32LE(Out, static_cast<uint32_t>(R.WitnessInputs.size()));
  for (const std::string &In : R.WitnessInputs)
    appendLPString(Out, In);
  appendLPString(Out, R.WitnessDivergence);
  appendLPString(Out, R.ReducedOrig);
  appendLPString(Out, R.ReducedOpt);
  appendLPString(Out, R.GapNodeA);
  appendLPString(Out, R.GapNodeB);
  appendLPString(Out, R.MissingRule);
}

bool readTriageEntry(const char *Data, size_t Size, size_t &Cur, VerdictKey &K,
                     StoredTriage &T) {
  if (!readU64LE(Data, Size, Cur, K.FpA) ||
      !readU64LE(Data, Size, Cur, K.FpB) ||
      !readU64LE(Data, Size, Cur, K.Config) ||
      !readU64LE(Data, Size, Cur, T.OptionsDigest))
    return false;
  if (Size - Cur < 2)
    return false;
  uint8_t Cls = static_cast<unsigned char>(Data[Cur++]);
  // An out-of-range classification byte means the file cannot have been
  // produced by this writer; treat it like any other corruption.
  if (Cls > static_cast<uint8_t>(TriageClassification::Inconclusive))
    return false;
  TriageResult &R = T.Result;
  R.Classification = static_cast<TriageClassification>(Cls);
  uint8_t Flags = static_cast<unsigned char>(Data[Cur++]);
  R.Reduced = Flags & TF_Reduced;
  R.ReduceMinimal = Flags & TF_ReduceMinimal;
  R.GapRan = Flags & TF_GapRan;
  R.GapDiverged = Flags & TF_GapDiverged;
  R.ClosedByAllRules = Flags & TF_ClosedByAllRules;
  uint32_t WitnessCount = 0;
  if (!readU32LE(Data, Size, Cur, R.InputsTried) ||
      !readU32LE(Data, Size, Cur, R.InputsSkipped) ||
      !readU32LE(Data, Size, Cur, R.ReduceValidations) ||
      !readU32LE(Data, Size, Cur, R.MissingRuleMask) ||
      !readU64LE(Data, Size, Cur, R.OrigInstsBefore) ||
      !readU64LE(Data, Size, Cur, R.OptInstsBefore) ||
      !readU64LE(Data, Size, Cur, R.OrigInstsAfter) ||
      !readU64LE(Data, Size, Cur, R.OptInstsAfter) ||
      !readU32LE(Data, Size, Cur, WitnessCount))
    return false;
  // Bound the count by the bytes actually left (each input costs at least
  // its u32 length) so a corrupt count cannot drive a huge allocation.
  if (WitnessCount > (Size - Cur) / 4)
    return false;
  R.WitnessInputs.resize(WitnessCount);
  for (std::string &In : R.WitnessInputs)
    if (!readLPString(Data, Size, Cur, In))
      return false;
  return readLPString(Data, Size, Cur, R.WitnessDivergence) &&
         readLPString(Data, Size, Cur, R.ReducedOrig) &&
         readLPString(Data, Size, Cur, R.ReducedOpt) &&
         readLPString(Data, Size, Cur, R.GapNodeA) &&
         readLPString(Data, Size, Cur, R.GapNodeB) &&
         readLPString(Data, Size, Cur, R.MissingRule);
}

bool readEntry(const char *Data, size_t Size, size_t &Cur, VerdictKey &K,
               ValidationResult &R) {
  if (!readU64LE(Data, Size, Cur, K.FpA) ||
      !readU64LE(Data, Size, Cur, K.FpB) ||
      !readU64LE(Data, Size, Cur, K.Config))
    return false;
  if (Cur >= Size)
    return false;
  uint8_t Flags = static_cast<unsigned char>(Data[Cur++]);
  R.Validated = Flags & RF_Validated;
  R.Unsupported = Flags & RF_Unsupported;
  R.EqualOnConstruction = Flags & RF_EqualOnConstruction;
  uint32_t ReasonLen = 0;
  if (!readU64LE(Data, Size, Cur, R.GraphNodes) ||
      !readU64LE(Data, Size, Cur, R.LiveNodes) ||
      !readU64LE(Data, Size, Cur, R.Rewrites) ||
      !readU64LE(Data, Size, Cur, R.SharingMerges) ||
      !readU64LE(Data, Size, Cur, R.Iterations) ||
      !readU64LE(Data, Size, Cur, R.Microseconds) ||
      !readU32LE(Data, Size, Cur, ReasonLen))
    return false;
  if (Size - Cur < ReasonLen)
    return false;
  R.Reason.assign(Data + Cur, ReasonLen);
  Cur += ReasonLen;
  return true;
}

/// Parses one shard payload: \p VerdictCount entries, then \p TriageCount
/// triage entries, nothing else. The caller has already verified the hash.
/// Every entry is over 64 bytes, so the reservations are bounded by the
/// payload size even when the index's counts lie.
bool parseShardPayload(const char *Data, size_t Size, uint64_t VerdictCount,
                       uint64_t TriageCount, VerdictMap &V, TriageMap &T) {
  size_t Cur = 0;
  V.reserve(V.size() + std::min<size_t>(VerdictCount, Size / 64));
  for (uint64_t I = 0; I < VerdictCount; ++I) {
    VerdictKey K;
    ValidationResult R;
    if (!readEntry(Data, Size, Cur, K, R))
      return false;
    V.emplace(K, std::move(R));
  }
  T.reserve(T.size() + std::min<size_t>(TriageCount, Size / 64));
  for (uint64_t I = 0; I < TriageCount; ++I) {
    VerdictKey K;
    StoredTriage ST;
    if (!readTriageEntry(Data, Size, Cur, K, ST))
      return false;
    T.emplace(K, std::move(ST));
  }
  return Cur == Size;
}

struct ShardRecord {
  uint64_t Offset = 0;
  uint64_t Bytes = 0;
  uint64_t VerdictCount = 0;
  uint64_t TriageCount = 0;
  uint64_t PayloadHash = 0;
};

/// Advisory exclusive lock on `Path + ".lock"` held for the save's whole
/// load-merge-rename sequence. Without it two shards could both load the
/// same on-disk state and the second rename would silently drop the first
/// shard's new entries. Best-effort: if the lock file cannot be created the
/// save proceeds unlocked (degrading to last-writer-wins), and on Windows
/// (no flock) it is a no-op.
class SaveLock {
public:
  explicit SaveLock(const std::string &Path) {
#ifndef _WIN32
    Fd = ::open((Path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
#else
    (void)Path;
#endif
  }
  ~SaveLock() {
#ifndef _WIN32
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
#endif
  }
  SaveLock(const SaveLock &) = delete;
  SaveLock &operator=(const SaveLock &) = delete;

private:
  int Fd = -1;
};

} // namespace

//===----------------------------------------------------------------------===//
// VerdictStoreReader
//===----------------------------------------------------------------------===//

struct VerdictStoreReader::Impl {
  std::string Path;
  std::ifstream In;
  VerdictStore::HeaderInfo Header;
  std::vector<ShardRecord> Index;
  struct Shard {
    bool Materialized = false;
    std::string Error; ///< why the shard serves nothing; empty if healthy
    VerdictMap V;
    TriageMap T;
  };
  std::vector<Shard> Shards;
  unsigned MaterializedCount = 0;

  /// Positioned read of [Offset, Offset + Bytes); false on a short read
  /// (with \p Out holding only what was read).
  bool readAt(uint64_t Offset, size_t Bytes, std::string &Out) {
    Out.resize(Bytes);
    In.clear();
    In.seekg(static_cast<std::streamoff>(Offset));
    In.read(&Out[0], static_cast<std::streamsize>(Bytes));
    Out.resize(static_cast<size_t>(In.gcount()));
    return Out.size() == Bytes;
  }

  /// Reads and verifies the header and shard index into \p HI and Index:
  /// magic, version, index hash, canonical offsets, exact file size
  /// (HI.FileBytes), count totals. O(index); no shard payload is read.
  VerdictStore::LoadStatus readIndex(VerdictStore::HeaderInfo &HI) {
    using LoadStatus = VerdictStore::LoadStatus;
    std::string Head;
    readAt(0, std::min<uint64_t>(HI.FileBytes, HeaderSize), Head);
    size_t Cur = 0;
    uint64_t Magic = 0, IndexHash = 0;
    if (!readU64LE(Head.data(), Head.size(), Cur, Magic) ||
        !readU32LE(Head.data(), Head.size(), Cur, HI.Version)) {
      HI.Message = "truncated header";
      return LoadStatus::Corrupt;
    }
    if (Magic != StoreMagic) {
      HI.Message = "'" + Path + "' is not a verdict store";
      return LoadStatus::BadMagic;
    }
    if (HI.Version != VerdictStore::FormatVersion) {
      HI.Message = "format version " + std::to_string(HI.Version) +
                   " (this build reads " +
                   std::to_string(VerdictStore::FormatVersion) + ")";
      return LoadStatus::BadVersion;
    }
    if (!readU32LE(Head.data(), Head.size(), Cur, HI.ShardCount) ||
        !readU64LE(Head.data(), Head.size(), Cur, HI.ConfigDigest) ||
        !readU64LE(Head.data(), Head.size(), Cur, HI.VerdictEntries) ||
        !readU64LE(Head.data(), Head.size(), Cur, HI.TriageEntries) ||
        !readU64LE(Head.data(), Head.size(), Cur, IndexHash)) {
      HI.Message = "truncated header";
      return LoadStatus::Corrupt;
    }
    const size_t IndexBytes = size_t(HI.ShardCount) * IndexRecordSize;
    std::string Raw;
    if (HI.ShardCount == 0 || HI.ShardCount > (1u << 20) ||
        HI.FileBytes - HeaderSize < IndexBytes ||
        !readAt(HeaderSize, IndexBytes, Raw)) {
      HI.Message = "truncated shard index";
      return LoadStatus::Corrupt;
    }
    if (hashBytes(Raw.data(), Raw.size()) != IndexHash) {
      HI.Message = "shard index checksum mismatch";
      return LoadStatus::Corrupt;
    }
    Index.resize(HI.ShardCount);
    Cur = 0;
    for (ShardRecord &S : Index) {
      readU64LE(Raw.data(), Raw.size(), Cur, S.Offset);
      readU64LE(Raw.data(), Raw.size(), Cur, S.Bytes);
      readU64LE(Raw.data(), Raw.size(), Cur, S.VerdictCount);
      readU64LE(Raw.data(), Raw.size(), Cur, S.TriageCount);
      readU64LE(Raw.data(), Raw.size(), Cur, S.PayloadHash);
    }
    // The layout is canonical; anything off-pattern did not come from this
    // writer and is rejected rather than interpreted.
    const uint64_t Size = HI.FileBytes;
    uint64_t VerdictSum = 0, TriageSum = 0;
    uint64_t Expect = alignToPage(HeaderSize + IndexBytes);
    for (const ShardRecord &S : Index) {
      if (S.Offset != Expect || S.Offset > Size || S.Bytes > Size - S.Offset) {
        HI.Message = "shard index out of bounds";
        return LoadStatus::Corrupt;
      }
      Expect = alignToPage(S.Offset + S.Bytes);
      VerdictSum += S.VerdictCount;
      TriageSum += S.TriageCount;
    }
    if (Index.back().Offset + Index.back().Bytes != Size) {
      HI.Message = "file size does not match the shard index";
      return LoadStatus::Corrupt;
    }
    if (VerdictSum != HI.VerdictEntries || TriageSum != HI.TriageEntries) {
      HI.Message = "entry totals do not match the shard index";
      return LoadStatus::Corrupt;
    }
    return LoadStatus::Loaded;
  }

  /// Reads shard \p S's payload into \p Bytes and verifies its checksum;
  /// on failure \p Error says why.
  bool readShard(size_t S, std::string &Bytes, std::string &Error) {
    const ShardRecord &R = Index[S];
    if (!readAt(R.Offset, R.Bytes, Bytes))
      Error = "shard " + std::to_string(S) + " truncated";
    else if (hashBytes(Bytes.data(), Bytes.size()) != R.PayloadHash)
      Error = "shard " + std::to_string(S) + " checksum mismatch";
    else
      return true;
    return false;
  }

  /// Reads, verifies and parses shard \p S the first time it is asked for.
  /// A bad shard materializes empty with its Error set.
  Shard &materialize(size_t S) {
    Shard &Sh = Shards[S];
    if (Sh.Materialized)
      return Sh;
    Sh.Materialized = true;
    ++MaterializedCount;
    const ShardRecord &R = Index[S];
    std::string Bytes;
    if (readShard(S, Bytes, Sh.Error) &&
        !parseShardPayload(Bytes.data(), Bytes.size(), R.VerdictCount,
                           R.TriageCount, Sh.V, Sh.T)) {
      Sh.Error = "malformed shard " + std::to_string(S);
      Sh.V.clear();
      Sh.T.clear();
    }
    return Sh;
  }

  /// The shard a key with \p Config lives in, materialized. A bad shard is
  /// a silent miss for every key in it, so say so once, when it is read.
  const Shard &probe(uint64_t Config) {
    size_t S = shardFor(Config, static_cast<uint32_t>(Shards.size()));
    bool Fresh = !Shards[S].Materialized;
    const Shard &Sh = materialize(S);
    if (Fresh && !Sh.Error.empty())
      logWarn("store", "verdict store '" + Path + "': " + Sh.Error +
                           "; its verdicts will be re-proved");
    return Sh;
  }
};

VerdictStoreReader::VerdictStoreReader() : I(new Impl) {}
VerdictStoreReader::~VerdictStoreReader() = default;

std::unique_ptr<VerdictStoreReader>
VerdictStoreReader::inspect(const std::string &Path,
                            VerdictStore::HeaderInfo &HI) {
  std::unique_ptr<VerdictStoreReader> R(new VerdictStoreReader());
  Impl &I = *R->I;
  I.Path = Path;
  I.In.open(Path, std::ios::binary);
  if (!I.In) {
    HI.Status = VerdictStore::LoadStatus::NoFile;
    HI.Message = "no store at '" + Path + "'";
    return nullptr;
  }
  I.In.seekg(0, std::ios::end);
  std::streamoff End = I.In.tellg();
  HI.FileBytes = End > 0 ? static_cast<uint64_t>(End) : 0;
  HI.Status = I.readIndex(HI);
  if (!HI.ok())
    return nullptr;
  I.Header = HI;
  I.Shards.resize(I.Index.size());
  return R;
}

std::unique_ptr<VerdictStoreReader>
VerdictStoreReader::open(const std::string &Path, uint64_t ConfigDigest,
                         VerdictStore::LoadResult *Out) {
  VerdictStore::HeaderInfo HI;
  std::unique_ptr<VerdictStoreReader> R = inspect(Path, HI);
  VerdictStore::LoadResult LR;
  LR.Status = HI.Status;
  LR.Message = HI.Message;
  if (R && HI.ConfigDigest != ConfigDigest) {
    LR.Status = VerdictStore::LoadStatus::ConfigMismatch;
    LR.Message = "store was produced under a different rule configuration";
    R.reset();
  }
  if (R)
    LR.EntriesInFile = HI.VerdictEntries;
  if (Out)
    *Out = LR;
  return R;
}

const ValidationResult *VerdictStoreReader::lookup(const VerdictKey &K) {
  const Impl::Shard &S = I->probe(K.Config);
  auto It = S.V.find(K);
  return It == S.V.end() ? nullptr : &It->second;
}

const StoredTriage *VerdictStoreReader::lookupTriage(const VerdictKey &K) {
  const Impl::Shard &S = I->probe(K.Config);
  auto It = S.T.find(K);
  return It == S.T.end() ? nullptr : &It->second;
}

unsigned VerdictStoreReader::numShards() const {
  return static_cast<unsigned>(I->Shards.size());
}

unsigned VerdictStoreReader::shardsMaterialized() const {
  return I->MaterializedCount;
}

uint64_t VerdictStoreReader::verdictEntriesInFile() const {
  return I->Header.VerdictEntries;
}

uint64_t VerdictStoreReader::triageEntriesInFile() const {
  return I->Header.TriageEntries;
}

std::string VerdictStore::serialize(uint64_t ConfigDigest,
                                    const VerdictMap &Map,
                                    const TriageMap *Triage) {
  // Deterministic bytes: shard count derives from the entry count, entries
  // sort by key within their shard, offsets follow the canonical packing —
  // the same maps always serialize identically regardless of hash-table
  // iteration order, so stores diff cleanly and CI cache keys are stable.
  auto KeyLess = [](const VerdictKey &KA, const VerdictKey &KB) {
    if (KA.FpA != KB.FpA)
      return KA.FpA < KB.FpA;
    if (KA.FpB != KB.FpB)
      return KA.FpB < KB.FpB;
    return KA.Config < KB.Config;
  };

  size_t TriageSize = Triage ? Triage->size() : 0;
  uint32_t ShardCount = shardCountFor(Map.size() + TriageSize);

  std::vector<std::vector<const VerdictMap::value_type *>> Entries(ShardCount);
  for (const auto &KV : Map)
    Entries[shardFor(KV.first.Config, ShardCount)].push_back(&KV);
  std::vector<std::vector<const TriageMap::value_type *>> TriageEntries(
      ShardCount);
  if (Triage)
    for (const auto &KV : *Triage)
      TriageEntries[shardFor(KV.first.Config, ShardCount)].push_back(&KV);

  std::vector<std::string> Payloads(ShardCount);
  std::vector<ShardRecord> Index(ShardCount);
  for (uint32_t S = 0; S < ShardCount; ++S) {
    auto ByKey = [&](const auto *A, const auto *B) {
      return KeyLess(A->first, B->first);
    };
    std::sort(Entries[S].begin(), Entries[S].end(), ByKey);
    std::sort(TriageEntries[S].begin(), TriageEntries[S].end(), ByKey);
    std::string &P = Payloads[S];
    P.reserve(Entries[S].size() * 80);
    for (const auto *KV : Entries[S])
      appendEntry(P, KV->first, KV->second);
    for (const auto *KV : TriageEntries[S])
      appendTriageEntry(P, KV->first, KV->second);
    Index[S].Bytes = P.size();
    Index[S].VerdictCount = Entries[S].size();
    Index[S].TriageCount = TriageEntries[S].size();
    Index[S].PayloadHash = hashBytes(P.data(), P.size());
  }

  size_t Offset = alignToPage(HeaderSize + ShardCount * IndexRecordSize);
  for (uint32_t S = 0; S < ShardCount; ++S) {
    Index[S].Offset = Offset;
    Offset = alignToPage(Offset + Index[S].Bytes);
  }

  std::string IndexBytes;
  IndexBytes.reserve(ShardCount * IndexRecordSize);
  for (const ShardRecord &S : Index) {
    appendU64LE(IndexBytes, S.Offset);
    appendU64LE(IndexBytes, S.Bytes);
    appendU64LE(IndexBytes, S.VerdictCount);
    appendU64LE(IndexBytes, S.TriageCount);
    appendU64LE(IndexBytes, S.PayloadHash);
  }

  std::string Out;
  Out.reserve(Index.back().Offset + Index.back().Bytes);
  appendU64LE(Out, StoreMagic);
  appendU32LE(Out, FormatVersion);
  appendU32LE(Out, ShardCount);
  appendU64LE(Out, ConfigDigest);
  appendU64LE(Out, static_cast<uint64_t>(Map.size()));
  appendU64LE(Out, static_cast<uint64_t>(TriageSize));
  appendU64LE(Out, hashBytes(IndexBytes.data(), IndexBytes.size()));
  Out += IndexBytes;
  for (uint32_t S = 0; S < ShardCount; ++S) {
    Out.resize(Index[S].Offset); // zero padding up to the shard boundary
    Out += Payloads[S];
  }
  return Out;
}

VerdictStore::LoadResult VerdictStore::load(const std::string &Path,
                                            uint64_t ConfigDigest,
                                            VerdictMap &Map,
                                            TriageMap *Triage) {
  LoadResult LR;
  std::unique_ptr<VerdictStoreReader> R =
      VerdictStoreReader::open(Path, ConfigDigest, &LR);
  if (!R)
    return LR;
  // Materialize every shard before merging anything, so a bad one cannot
  // leave Map half-merged.
  auto &Shards = R->I->Shards;
  for (size_t S = 0; S < Shards.size(); ++S)
    if (!R->I->materialize(S).Error.empty()) {
      LR.Status = LoadStatus::Corrupt;
      LR.Message = Shards[S].Error;
      return LR;
    }
  for (auto &Sh : Shards) {
    for (auto &KV : Sh.V)
      if (Map.emplace(KV.first, std::move(KV.second)).second)
        ++LR.EntriesMerged;
    if (Triage)
      for (auto &KV : Sh.T)
        Triage->emplace(KV.first, std::move(KV.second));
  }
  return LR;
}

std::string VerdictStore::shardPath(const std::string &BasePath,
                                    unsigned Index) {
  return BasePath + ".shard" + std::to_string(Index);
}

VerdictStore::HeaderInfo VerdictStore::peekHeader(const std::string &Path) {
  HeaderInfo HI;
  peekShards(Path, &HI);
  return HI;
}

std::vector<VerdictStore::ShardStats>
VerdictStore::peekShards(const std::string &Path, HeaderInfo *Info) {
  HeaderInfo HI;
  std::vector<ShardStats> Out;
  if (std::unique_ptr<VerdictStoreReader> R =
          VerdictStoreReader::inspect(Path, HI)) {
    // Counts come straight from the verified index — no entry is parsed —
    // but every shard checksum is still verified.
    const std::vector<ShardRecord> &Index = R->I->Index;
    Out.reserve(Index.size());
    for (size_t S = 0; S < Index.size(); ++S) {
      std::string Bytes, Error;
      bool Ok = R->I->readShard(S, Bytes, Error);
      if (!Ok && HI.ok()) {
        HI.Status = LoadStatus::Corrupt;
        HI.Message = Error;
      }
      Out.push_back({Index[S].Offset, Index[S].Bytes, Index[S].VerdictCount,
                     Index[S].TriageCount, Ok});
    }
  }
  if (Info)
    *Info = HI;
  return Out;
}

uint64_t VerdictStore::mergePaths(const std::vector<std::string> &Inputs,
                                  const std::string &OutPath,
                                  uint64_t ConfigDigest, std::string *Error) {
  VerdictMap Merged;
  TriageMap MergedTriage;
  for (const std::string &Path : Inputs) {
    // emplace in load() keeps the existing value per key, so earlier
    // inputs win — document order is precedence order.
    LoadResult LR = load(Path, ConfigDigest, Merged, &MergedTriage);
    if (LR.Status == LoadStatus::NoFile)
      continue; // a worker that never saved is an empty shard, not an error
    if (!LR.loaded()) {
      if (Error)
        *Error = "'" + Path + "': " + LR.Message;
      return ~0ull;
    }
  }
  return save(OutPath, ConfigDigest, Merged, Error, /*MergeExisting=*/true,
              &MergedTriage);
}

uint64_t VerdictStore::save(const std::string &Path, uint64_t ConfigDigest,
                            const VerdictMap &Map, std::string *Error,
                            bool MergeExisting, const TriageMap *Triage) {
  SaveLock Lock(Path);
  const VerdictMap *ToWrite = &Map;
  const TriageMap *TriageToWrite = Triage;
  VerdictMap Merged;
  TriageMap MergedTriage;
  if (MergeExisting) {
    // Union with whatever another shard already saved here. Start from the
    // in-memory maps so the current process wins per key; a store that
    // fails to load (any reason) contributes nothing.
    Merged = Map;
    if (Triage)
      MergedTriage = *Triage;
    VerdictMap OnDisk;
    TriageMap OnDiskTriage;
    if (load(Path, ConfigDigest, OnDisk, &OnDiskTriage).loaded()) {
      for (auto &KV : OnDisk)
        Merged.emplace(KV.first, std::move(KV.second));
      for (auto &KV : OnDiskTriage)
        MergedTriage.emplace(KV.first, std::move(KV.second));
    }
    ToWrite = &Merged;
    // Preserve another shard's triage entries even when this engine ran
    // with triage off (Triage == nullptr): dropping them on save would
    // silently cool future warm runs.
    TriageToWrite = &MergedTriage;
  }

  std::string Bytes = serialize(ConfigDigest, *ToWrite, TriageToWrite);

#ifndef _WIN32
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
#else
  std::string Tmp = Path + ".tmp";
#endif
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out || !Out.write(Bytes.data(), static_cast<std::streamsize>(
                                             Bytes.size()))) {
      if (Error)
        *Error = "cannot write '" + Tmp + "'";
      std::remove(Tmp.c_str());
      return ~0ull;
    }
  }
  // POSIX rename atomically replaces the target. Windows' std::rename
  // refuses to overwrite, so fall back to remove-then-rename there (not
  // atomic, but the SaveLock already serializes savers on the same path).
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Path.c_str());
    if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
      if (Error)
        *Error = "cannot rename '" + Tmp + "' to '" + Path + "'";
      std::remove(Tmp.c_str());
      return ~0ull;
    }
  }
  return static_cast<uint64_t>(ToWrite->size());
}
