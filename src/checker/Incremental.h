//===- Incremental.h - Function-granular incremental re-checking -*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental re-check layer over the sharded checker (Parallel.h).
/// The paper's section 6 pitch is interactive-speed checking; this layer
/// makes warm re-checks after an edit proportional to the edit, not the
/// unit, while staying byte-identical to a cold full check.
///
/// A unit (one translation unit fed to `recheck`) is split into the same
/// work items as the parallel checker: the global initializers (work item
/// 0) plus one item per function definition. Every item gets a 128-bit
/// content hash covering
///
///   * the qualifier environment (every loaded qualifier definition,
///     checker options, struct layouts, global declared types),
///   * the item's own body (every statement, expression, l-value, declared
///     type, constant, and crucially every SourceLoc, because cached
///     diagnostics embed line:col positions), and
///   * the signatures of its direct callees (name, return type, parameter
///     declared types, variadicness — qualifier changes included, since
///     `Type::str()` prints qualifier sets).
///
/// Verdicts (counters + diagnostics, by value — never AST pointers, which
/// dangle across parses) live in an LRU-bounded store keyed by the full
/// content hash. A probe that hits replays the cached diagnostics; a miss
/// runs the real checker for just that item. Items are merged in program
/// order, so output is byte-identical to `checkProgramParallel` at any job
/// count.
///
/// Content hashing alone dirties only the *direct* callers of a changed
/// signature (the callee signature is folded into the caller's hash). The
/// engine additionally snapshots per-unit signature hashes and, when a
/// signature changes, walks the reverse call graph to force-dirty the
/// changed function's *transitive* callers — the invalidation contract the
/// edit-replay harness pins down.
///
/// The engine is shared across requests by stqd (one per process) and is
/// safe for concurrent `recheck` calls: store and snapshot accesses are
/// mutex-guarded; the checking itself runs unlocked on the shared pool.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_INCREMENTAL_H
#define STQ_CHECKER_INCREMENTAL_H

#include "checker/Checker.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stq {
class ThreadPool;
}

namespace stq::checker::incremental {

/// A 128-bit content hash: two independent 64-bit FNV-style streams with
/// different multipliers, so a collision requires defeating both at once.
/// 64 bits alone is too little for a long-lived store that must never
/// silently serve the wrong verdict.
struct Hash128 {
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x9e3779b97f4a7c15ULL;

  bool operator==(const Hash128 &O) const { return A == O.A && B == O.B; }
  bool operator!=(const Hash128 &O) const { return !(*this == O); }
  bool operator<(const Hash128 &O) const {
    return A != O.A ? A < O.A : B < O.B;
  }
};

/// Accumulates bytes into a Hash128.
class Hasher {
public:
  void byte(uint8_t X) {
    H.A = (H.A ^ X) * 0x100000001b3ULL;
    H.B = (H.B ^ X) * 0xff51afd7ed558ccdULL;
  }
  void u64(uint64_t X) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(X >> (I * 8)));
  }
  void i64(int64_t X) { u64(static_cast<uint64_t>(X)); }
  /// Length-prefixed, so "ab"+"c" never collides with "a"+"bc".
  void str(std::string_view S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  /// Folds another hash (e.g. a callee signature) into this stream.
  void hash(const Hash128 &O) {
    u64(O.A);
    u64(O.B);
  }

  Hash128 get() const { return H; }

private:
  Hash128 H;
};

/// One cached work-item verdict. Counters and diagnostics by value;
/// RuntimeChecks/Failures are reduced to counts because their elements
/// hold AST pointers that would dangle across parses.
struct CachedVerdict {
  unsigned QualErrors = 0;
  CheckerStats Stats;
  uint64_t RuntimeCheckCount = 0;
  uint64_t FailureCount = 0;
  std::vector<Diagnostic> Diags;
};

/// Result of one incremental re-check: the same shape execCheck consumes,
/// minus the AST-pointer record lists (counts instead).
struct RecheckResult {
  unsigned QualErrors = 0;
  CheckerStats Stats;
  uint64_t RuntimeCheckCount = 0;
  uint64_t FailureCount = 0;

  bool ok() const { return QualErrors == 0; }
};

/// Counters describing one recheck() call; Session publishes these as the
/// incremental.* metrics (docs/OBSERVABILITY.md).
struct RecheckStats {
  /// Work items in the unit (functions + 1 for globals).
  unsigned Units = 0;
  /// Items served from the verdict store.
  unsigned Hits = 0;
  /// Items actually re-checked (misses + forced-dirty).
  unsigned Rechecked = 0;
  /// Items force-dirtied as transitive callers of a changed signature
  /// (these are counted in Rechecked too).
  unsigned SignatureDirtied = 0;
  /// Store evictions caused by this call.
  unsigned Evictions = 0;
  /// Scheduling facts, mirroring ParallelStats.
  unsigned Jobs = 1;
  size_t Executed = 0;
  size_t Steals = 0;
};

/// The long-lived incremental engine: verdict store + per-unit signature
/// snapshots. One per process in stqd; Session creates a private one when
/// no shared engine is wired in.
class Engine {
public:
  /// \p Capacity bounds the verdict store (LRU eviction past it). 0 means
  /// "cache nothing" — every item re-checks, verdicts stay correct.
  explicit Engine(size_t Capacity = DefaultCapacity);

  /// Re-checks \p Prog under \p Quals, reusing stored verdicts where the
  /// content hash matches and the invalidation policy allows. Diagnostics
  /// land in \p Diags in program order — byte-identical to a cold
  /// checkProgramParallel run at any \p Jobs. \p Unit names the snapshot
  /// used for signature-change invalidation (the server passes the
  /// client's unit name; one-shot callers use the default "").
  ///
  /// When Options carry AssumedCasts/AssumedVarQuals (annotation/inference
  /// drivers), the store is bypassed entirely: those runs are not keyed by
  /// program content alone.
  ///
  /// \p EnvSeed, when non-null, is folded into every work item's content
  /// hash. The multi-TU front end passes the TU's post-preprocess token
  /// stream hash here, so editing a header re-keys (and therefore
  /// re-checks) every translation unit that includes it — even when the
  /// edit does not change the lowered AST of a particular function.
  RecheckResult recheck(const std::string &Unit, cminus::Program &Prog,
                        const qual::QualifierSet &Quals,
                        DiagnosticEngine &Diags, CheckerOptions Options,
                        unsigned Jobs, RecheckStats *StatsOut = nullptr,
                        ThreadPool *Pool = nullptr,
                        const Hash128 *EnvSeed = nullptr);

  /// Current verdict-store size / lifetime eviction count, for gauges.
  size_t entries() const;
  uint64_t evictions() const;
  /// Drops every stored verdict and snapshot (tests).
  void clear();

  static constexpr size_t DefaultCapacity = 4096;

private:
  struct Entry {
    Hash128 Key;
    CachedVerdict Verdict;
  };
  /// Signature hashes by function name, per unit, from the previous
  /// recheck of that unit.
  struct UnitSnapshot {
    std::map<std::string, Hash128> Signatures;
  };

  /// Probe under Mu: returns true and copies the verdict out on a hit
  /// (also refreshes LRU order).
  bool probe(const Hash128 &Key, CachedVerdict &Out);
  /// Insert under Mu (overwrites an existing key), evicting past capacity.
  /// Returns the number of evictions performed.
  unsigned insert(const Hash128 &Key, CachedVerdict Verdict);

  const size_t Capacity;

  mutable std::mutex Mu;
  /// LRU order: front = most recent.
  std::list<Entry> Order;
  std::map<Hash128, std::list<Entry>::iterator> Index;
  std::map<std::string, UnitSnapshot> Snapshots;
  uint64_t TotalEvictions = 0;
};

} // namespace stq::checker::incremental

#endif // STQ_CHECKER_INCREMENTAL_H
