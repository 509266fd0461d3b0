//===- Parallel.h - Sharded parallel qualifier checking ---------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel checking pipeline (`stqc check --jobs N`). A program is
/// split into units — the global initializers plus one unit per function
/// definition — and the units of every program in a check go through one
/// parallelFor as one task graph. Each runner reuses one QualChecker for
/// all the units it takes; the checker only reads the lowered AST, so
/// units share their program without synchronization. Each runner reports
/// into its own engine, and each unit's diagnostics move out of it into
/// the unit's slot.
///
/// Determinism: unit results are merged per program, in program order
/// (globals first, then functions as declared), which reproduces the
/// sequential checker's diagnostic and runtime-check order exactly.
/// `--jobs N` must be byte-identical to `--jobs 1`; the differential test
/// enforces this. The hasQualifier memo starts empty in every unit, and a
/// unit's queries only reach its own expressions, so even the memo
/// counters are the same at every job count.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_PARALLEL_H
#define STQ_CHECKER_PARALLEL_H

#include "checker/Checker.h"

#include <functional>

namespace stq {
class ThreadPool;
}

namespace stq::checker {

/// Counters describing one parallel checking run.
struct ParallelStats {
  /// Shardable units: 1 (globals) + function definitions.
  unsigned Units = 0;
  /// The job count asked for.
  unsigned Jobs = 0;
  /// Units checked, and how many of them a helper runner rather than the
  /// calling thread checked (0 when Jobs <= 1).
  uint64_t Executed = 0;
  uint64_t Steals = 0;
};

/// Receives the diagnostics of one unit of program \p Prog.
using UnitDiagnosticsSink =
    std::function<void(size_t Prog, std::vector<Diagnostic> Diags)>;

/// Checks every program in \p Progs with \p Jobs runners, all units in
/// one parallelFor. Every unit's diagnostics go to \p Report on the
/// calling thread, in merge order: program by program, and within a
/// program globals first, then functions as declared. The result sums all
/// units, its record lists in the same order. The caller merges each
/// finished prefix of units between its own units, so the merge overlaps
/// the check and only units that finished out of order wait in memory.
/// Helpers run on \p Pool when given (stqd's shared pool), and otherwise
/// on the process pool.
CheckResult checkProgramsParallel(
    const std::vector<cminus::Program *> &Progs,
    const qual::QualifierSet &Quals, const UnitDiagnosticsSink &Report,
    CheckerOptions Options = {}, unsigned Jobs = 1,
    ParallelStats *StatsOut = nullptr, ThreadPool *Pool = nullptr);

/// checkProgramsParallel for one program, reporting into \p Diags.
CheckResult checkProgramParallel(cminus::Program &Prog,
                                 const qual::QualifierSet &Quals,
                                 DiagnosticEngine &Diags,
                                 CheckerOptions Options = {},
                                 unsigned Jobs = 1,
                                 ParallelStats *StatsOut = nullptr,
                                 ThreadPool *Pool = nullptr);

/// Convenience entry point mirroring checkSource: full front end, then
/// parallel checking.
CheckResult checkSourceParallel(const std::string &Source,
                                const qual::QualifierSet &Quals,
                                DiagnosticEngine &Diags,
                                std::unique_ptr<cminus::Program> &ProgOut,
                                CheckerOptions Options = {},
                                unsigned Jobs = 1,
                                ParallelStats *StatsOut = nullptr);

} // namespace stq::checker

#endif // STQ_CHECKER_PARALLEL_H
