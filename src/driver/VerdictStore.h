//===- VerdictStore.h - Persistent cross-process verdict store --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the engine's verdict cache. Function fingerprints
/// are byte-stable across runs, so a verdict proven in one process is just
/// as valid in the next — the store serializes the memo table
/// `(fp_orig, fp_opt, config) -> ValidationResult` to a versioned binary
/// file and merges it back on load, which turns repeated CI validations of
/// the same compiler output into pure replays.
///
/// Safety over convenience:
///  * the header carries a magic, a format version, and a config digest
///    (rule mask, fixpoint budget, plus a semantics salt bumped whenever
///    validator behavior changes); anything mismatched is *rejected* — the
///    caller rebuilds from scratch rather than replaying verdicts proven
///    under different rules. Per-module state (the globals digest
///    RS_GlobalFold depends on) is part of every entry's key, so entries
///    from other modules are inert rather than wrong.
///  * every shard payload is checksummed and the shard index carries its
///    own hash; a truncated or bit-flipped file loads as Corrupt, never as
///    a partial cache.
///  * saves are atomic (write temp + rename), merge the current on-disk
///    contents first, and serialize against each other via an advisory
///    lock on `<path>.lock`, so concurrent shards writing the same path
///    union their verdicts (last writer wins per key) instead of
///    clobbering or losing each other's updates.
///  * the payload is split into page-aligned shards partitioned by the
///    entry key's Config field — the per-module digest folds into Config,
///    so one module's verdicts land in one shard. Every read goes through
///    one VerdictStoreReader: it reads the header and shard index at open
///    and each shard's bytes the first time a key lands there, so probing
///    a store for one module's verdicts reads the index plus that module's
///    shard, not the whole file.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_VERDICTSTORE_H
#define LLVMMD_DRIVER_VERDICTSTORE_H

#include "triage/Triage.h"
#include "validator/Validator.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace llvmmd {

struct RuleConfig;

/// What one memoized verdict is keyed on: both structural fingerprints plus
/// everything else the verdict depends on (rule mask, fixpoint budget, and
/// the module-globals digest when RS_GlobalFold can read initializers).
/// Shared between the in-memory cache and the store.
struct VerdictKey {
  uint64_t FpA = 0, FpB = 0;
  uint64_t Config = 0;
  bool operator==(const VerdictKey &O) const {
    return FpA == O.FpA && FpB == O.FpB && Config == O.Config;
  }
};

struct VerdictKeyHash {
  size_t operator()(const VerdictKey &K) const;
};

using VerdictMap =
    std::unordered_map<VerdictKey, ValidationResult, VerdictKeyHash>;

/// One memoized triage outcome, stored next to the verdict it explains:
/// same fingerprint pair, with the key's Config additionally folding in
/// the triage-options digest (triageOptionsDigest: corpus size, budgets,
/// resolved corpus bias) so two modules that share a rejected pair but
/// mine different biases hold separate entries. The digest also rides
/// along in the value and is re-checked on replay — a mismatched entry is
/// inert, never wrong.
struct StoredTriage {
  uint64_t OptionsDigest = 0;
  TriageResult Result;
};

using TriageMap = std::unordered_map<VerdictKey, StoredTriage, VerdictKeyHash>;

/// Digest of everything engine-global a replayed verdict depends on: rule
/// mask, fixpoint budget, and the store's semantics salt. This is the store
/// header's compatibility gate; per-module inputs are digested into each
/// entry's key instead.
uint64_t verdictStoreConfigDigest(const RuleConfig &Rules);

class VerdictStore {
public:
  /// On-disk layout version. Bump when the serialized shape changes.
  /// v3 is page-aligned, per-module shards behind an index header, each
  /// holding verdicts and triage entries. Only v3 is read or written; any
  /// other version is rejected as BadVersion and the store is rebuilt.
  static constexpr uint32_t FormatVersion = 3;
  /// Shard payloads start on multiples of this, so reading one shard
  /// touches only its own pages.
  static constexpr size_t PageBytes = 4096;
  /// Folded into every config digest; bump when validator *behavior*
  /// changes in a way old verdicts must not survive (new rules, fingerprint
  /// algorithm changes, ...). Orthogonal to FormatVersion, which only
  /// covers the byte layout. v1.2: one sharing algorithm (the coarsest
  /// bisimulation) replaced the selectable strategies, so a stored result's
  /// `sharing_merges`/`live_nodes` are counts a cold run no longer
  /// reproduces; old stores are rejected once and rebuilt.
  static constexpr uint64_t SemanticsSalt = 0x6c6d642d76312e32ULL; // "lmd-v1.2"

  enum class LoadStatus : uint8_t {
    Loaded,         ///< entries merged into the map
    NoFile,         ///< nothing at the path (fresh start, not an error)
    BadMagic,       ///< not a verdict store
    BadVersion,     ///< serialized with a different FormatVersion
    ConfigMismatch, ///< produced under a different rule configuration
    Corrupt,        ///< truncated file or checksum failure
  };

  struct LoadResult {
    LoadStatus Status = LoadStatus::NoFile;
    uint64_t EntriesInFile = 0; ///< entries the file claims to hold
    uint64_t EntriesMerged = 0; ///< entries actually added to the map
    std::string Message;        ///< human-readable detail on rejection
    bool loaded() const { return Status == LoadStatus::Loaded; }
  };

  /// Loads the store at \p Path and merges its entries into \p Map (and,
  /// when \p Triage is non-null, its triage section into \p *Triage). Keys
  /// already present keep their in-memory value (the current process has
  /// fresher information). Every shard is read and verified; the first bad
  /// one rejects the whole load, and on any rejection both maps are left
  /// untouched.
  static LoadResult load(const std::string &Path, uint64_t ConfigDigest,
                         VerdictMap &Map, TriageMap *Triage = nullptr);

  /// Atomically replaces the store at \p Path with \p Map: serialize to a
  /// sibling temp file, then rename over the target. When \p MergeExisting
  /// (the default), a loadable on-disk store with the same digest is folded
  /// in first — in-memory entries win per key — so two engines saving to
  /// the same path union their verdicts instead of clobbering. \p Triage,
  /// when non-null, is written (and merged) the same way. Returns the
  /// number of verdict entries written, or ~0ull on I/O failure (with
  /// \p Error set).
  static uint64_t save(const std::string &Path, uint64_t ConfigDigest,
                       const VerdictMap &Map, std::string *Error = nullptr,
                       bool MergeExisting = true,
                       const TriageMap *Triage = nullptr);

  /// Serializes \p Map (+ optional triage section) to the store byte format
  /// (header included). Exposed for tests that need to corrupt specific
  /// offsets.
  static std::string serialize(uint64_t ConfigDigest, const VerdictMap &Map,
                               const TriageMap *Triage = nullptr);

  /// The canonical per-worker shard path under a fleet base store:
  /// `<base>.shard<index>`. Kept here (not in src/fleet/) so offline tools
  /// and the fleet agree on the naming forever.
  static std::string shardPath(const std::string &BasePath, unsigned Index);

  /// Header-only inspection without touching entry payloads (the checksum
  /// IS verified — a corrupt store should say so, not report a count).
  struct HeaderInfo {
    LoadStatus Status = LoadStatus::NoFile;
    uint32_t Version = 0;
    uint32_t ShardCount = 0;
    uint64_t ConfigDigest = 0;
    uint64_t VerdictEntries = 0;
    uint64_t TriageEntries = 0;
    uint64_t FileBytes = 0;
    std::string Message;
    bool ok() const { return Status == LoadStatus::Loaded; }
  };

  /// Reads \p Path's header (any config digest accepted — the caller is
  /// inspecting, not replaying). Status mirrors load(): BadMagic/BadVersion/
  /// Corrupt on rejection, Loaded when the header and checksums hold. The
  /// entry counts come straight from the index — no entry is parsed — but
  /// every shard checksum is still verified: inspection stays honest about
  /// damage. This is peekShards() folded into one status.
  static HeaderInfo peekHeader(const std::string &Path);

  /// One shard's slot in the index, for occupancy inspection
  /// (`store_tool --stats`). Offsets/bytes are the on-disk payload (the
  /// page padding between shards is derivable from the next offset);
  /// ChecksumOk is the shard's payload hash verified against the file.
  struct ShardStats {
    uint64_t Offset = 0;
    uint64_t Bytes = 0;
    uint64_t VerdictEntries = 0;
    uint64_t TriageEntries = 0;
    bool ChecksumOk = false;
  };

  /// Per-shard occupancy of the store at \p Path, in index order. A damaged
  /// shard does not reject the whole inspection: the bad shard reports
  /// ChecksumOk=false and \p Info (when given) comes back Corrupt, but
  /// every shard's index record is still returned — exactly what "which
  /// shard is hurt, how much is lost" needs. An unreadable header or index
  /// yields an empty vector with \p Info carrying the rejection.
  static std::vector<ShardStats> peekShards(const std::string &Path,
                                            HeaderInfo *Info = nullptr);

  /// Offline union of \p Inputs into \p OutPath: every input must load
  /// under \p ConfigDigest (earlier inputs win per key, matching
  /// merge-on-save's in-memory-wins rule when inputs are ordered
  /// freshest-first). Returns the number of verdict entries written, or
  /// ~0ull with \p Error set when any input is rejected or the write fails.
  static uint64_t mergePaths(const std::vector<std::string> &Inputs,
                             const std::string &OutPath, uint64_t ConfigDigest,
                             std::string *Error = nullptr);
};

/// The one way store bytes are read. open() reads and verifies only the
/// header and shard index; a lookup reads, verifies and parses just the
/// shard its key hashes to, the first time any key lands there (a
/// positioned read of that shard's byte range). A warm probe against an
/// N-module store therefore costs O(index + the shards actually hit);
/// load(), peekHeader() and peekShards() are folds over the same reader.
///
/// The config digest is gated at open() exactly like load(). A shard that
/// fails its checksum, does not parse, or comes back short (the file was
/// truncated under the reader) materializes as empty, with one warning
/// naming it: lookups miss and the caller re-proves — wrong answers are
/// impossible, only wasted work.
///
/// Not thread-safe: confine one instance to one thread.
class VerdictStoreReader {
public:
  /// Opens \p Path; returns null (with \p Out describing why, when given)
  /// unless the header, index, and digest all check out.
  static std::unique_ptr<VerdictStoreReader>
  open(const std::string &Path, uint64_t ConfigDigest,
       VerdictStore::LoadResult *Out = nullptr);
  ~VerdictStoreReader();
  VerdictStoreReader(const VerdictStoreReader &) = delete;
  VerdictStoreReader &operator=(const VerdictStoreReader &) = delete;

  /// The stored verdict for \p K, or null. Materializes K's shard on first
  /// touch. The pointer lives as long as this object.
  const ValidationResult *lookup(const VerdictKey &K);
  /// The stored triage outcome for \p K, or null.
  const StoredTriage *lookupTriage(const VerdictKey &K);

  unsigned numShards() const;
  /// How many shards have been read so far (the laziness observable the
  /// tests and benches assert on).
  unsigned shardsMaterialized() const;
  uint64_t verdictEntriesInFile() const;
  uint64_t triageEntriesInFile() const;

private:
  friend class VerdictStore;
  VerdictStoreReader();
  /// open() without the digest gate, for inspection: \p HI gets the
  /// header fields and the status.
  static std::unique_ptr<VerdictStoreReader>
  inspect(const std::string &Path, VerdictStore::HeaderInfo &HI);
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace llvmmd

#endif // LLVMMD_DRIVER_VERDICTSTORE_H
