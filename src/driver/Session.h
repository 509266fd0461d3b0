//===- Session.h - The stq pipeline driver facade ---------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `stq::Session` is the one public entry point over the whole pipeline:
/// qualifier loading (builtins, DSL files, inline DSL sources), the
/// C-minus front end (parse, sema, lower, verify), the extensible
/// typechecker (optionally sharded over a work-stealing pool), the
/// automated soundness checker backed by the memoized prover cache, the
/// instrumented interpreter, and qualifier inference.
///
/// A Session owns the objects every driver used to wire by hand - the
/// DiagnosticEngine, the QualifierSet, the ProverCache - plus a
/// stats::Registry that every stage publishes into (see
/// docs/OBSERVABILITY.md for the counter names). `stqc`, the examples,
/// and the benchmarks are all thin layers over this class.
///
/// Typical use:
///
///   stq::SessionOptions Opts;
///   Opts.Builtins = {"nonnull"};
///   stq::Session S(Opts);
///   auto Out = S.check(Source);
///   if (Out.FrontEndOk && Out.Result.ok()) { ... }
///   S.emitMetrics(std::cout, stq::metrics::Format::Text);
///
//===----------------------------------------------------------------------===//

#ifndef STQ_DRIVER_SESSION_H
#define STQ_DRIVER_SESSION_H

#include "checker/Checker.h"
#include "checker/ConstraintInference.h"
#include "checker/Incremental.h"
#include "checker/Inference.h"
#include "checker/Parallel.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "prover/Prover.h"
#include "prover/ProverCache.h"
#include "qual/QualAST.h"
#include "soundness/Soundness.h"
#include "support/Diagnostics.h"
#include "support/MetricsEmitter.h"
#include "support/Stats.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace stq {

/// Reads \p Path into \p Out; on failure returns false and sets \p Error.
bool readFileToString(const std::string &Path, std::string &Out,
                      std::string &Error);

/// Everything that configures a Session, with the defaults every driver
/// used before the facade existed.
struct SessionOptions {
  /// Builtin qualifiers to load (see qual::builtinQualifierNames()).
  std::vector<std::string> Builtins;
  /// Paths of qualifier-DSL files to load.
  std::vector<std::string> QualFiles;
  /// Inline qualifier-DSL sources to load (after builtins and files).
  std::vector<std::string> QualSources;
  /// When no builtins, files, or sources are requested, load every
  /// builtin (the historical `stqc` default).
  bool ImplicitAllBuiltins = true;

  checker::CheckerOptions Checker;
  interp::InterpOptions Interp;
  prover::ProverOptions Prover;

  /// Which engine run() executes the instrumented program on. Both are
  /// byte-identical in observable behavior (traps, checks, audits,
  /// output, fuel); the VM compiles to register bytecode first and is
  /// several times faster in the run phase, so it is the default. The
  /// tree-walking interpreter remains the differential oracle.
  enum class ExecBackend { Interp, Vm };
  ExecBackend Backend = ExecBackend::Vm;
  /// VM only: run the prover-driven guard-elision pass, discharging
  /// run-time qualifier checks the static context already entails.
  /// Elision never changes observable behavior (only the executed-check
  /// counter drops).
  bool VmElideChecks = true;

  /// Worker threads for check() and prove(); <= 1 is the sequential
  /// baseline (byte-identical diagnostics for any value).
  unsigned Jobs = 1;
  /// prove(): run a silent first pass so the reported pass replays
  /// entirely from the prover cache.
  bool WarmProverCache = false;
  /// When non-empty, prove() and proveQualifier() load the prover cache
  /// from this file before checking (a missing file is the normal cold
  /// start; a corrupt or wrong-version file is ignored with a warning,
  /// never trusted) and save the merged cache back afterwards. Re-checking
  /// an unchanged qualifier set across processes then skips proving
  /// entirely.
  std::string CacheFile;

  /// Multi-input front end (load/checkFiles/recheckFiles): `-I` include
  /// search directories and `-D` predefines ("NAME" or "NAME=VALUE"), in
  /// command-line order.
  std::vector<std::string> IncludeDirs;
  std::vector<std::string> Defines;
  /// When non-null, `#include` resolution for the multi-input entry
  /// points reads this shipped include closure instead of the filesystem
  /// — the daemon path: `stqc --server` collects the closure client-side
  /// (pp::collectIncludeClosure) and ships it in the request. Must
  /// outlive the Session.
  const pp::FileMap *ShippedFiles = nullptr;

  /// Process-sharing hooks (the stqd server). Each pointee must outlive
  /// the Session; all default to the owned, per-session objects.
  ///
  /// When set, prove() memoizes into this cache instead of the session's
  /// own. The owner is responsible for persistence, so CacheFile
  /// load/save should not be combined with a shared cache.
  prover::ProverCache *SharedCache = nullptr;
  /// When set, the qualifier set was loaded (and well-formed-checked)
  /// once by the owner; Builtins/QualFiles/QualSources are ignored and
  /// loadQualifiers() is an immediate success.
  const qual::QualifierSet *SharedQualifiers = nullptr;
  /// When set, check() and prove() fan their units/obligations onto this
  /// pool as task groups instead of spawning a per-call pool, so
  /// concurrent sessions share one set of workers.
  ThreadPool *SharedPool = nullptr;
  /// When set, recheck() probes and fills this long-lived incremental
  /// engine (verdict store + signature snapshots) instead of a per-session
  /// one, so warm edits re-check only what changed across requests.
  checker::incremental::Engine *SharedIncremental = nullptr;

  /// The snapshot name recheck() uses for signature-change invalidation —
  /// the server passes the client's `unit` option so edits to one file
  /// diff against that file's previous version, not another client's.
  std::string IncrementalUnit;

  /// infer() configuration: inference scope, suggestion budget, and
  /// apply-mode. Mirrored one-to-one by `stqc infer --scope
  /// --max-suggestions --apply` and the stq-rpc-v1 infer params.
  struct InferenceParams {
    checker::InferenceScope Scope = checker::InferenceScope::Program;
    /// Report at most this many suggestion entries (0 = unlimited).
    /// Ignored in apply-mode: applying a partial suggestion set is not
    /// guaranteed to re-check clean.
    unsigned MaxSuggestions = 0;
    /// Apply the minimal suggested set to the program and return the
    /// re-printed annotated source.
    bool Apply = false;
  };
  InferenceParams Infer;
};

/// The pipeline driver. Not thread-safe: one Session per thread (the
/// parallelism lives *inside* check() and prove()).
class Session {
public:
  explicit Session(SessionOptions Options = {});
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Loads the configured qualifiers (idempotent; later calls return the
  /// first outcome). All entry points below call this themselves.
  bool loadQualifiers();

  /// Result of check(): the front end's program (when it got that far)
  /// plus the typechecker's verdict and pipeline counters.
  struct CheckOutcome {
    /// False when parse/sema/lower/verify failed; Result is then empty.
    bool FrontEndOk = false;
    checker::CheckResult Result;
    checker::ParallelStats Pipeline;
    std::unique_ptr<cminus::Program> Program;
  };
  /// Front end + extensible typechecker over `Jobs` workers.
  CheckOutcome check(const std::string &Source);

  /// Result of recheck(): same verdict shape as check(), but record lists
  /// are counts (cached verdicts cannot hold AST pointers) and the
  /// pipeline stats say how much of the unit was served from the store.
  struct RecheckOutcome {
    bool FrontEndOk = false;
    checker::incremental::RecheckResult Result;
    checker::incremental::RecheckStats Stats;
    std::unique_ptr<cminus::Program> Program;
  };
  /// Front end + incremental re-check: items whose content hash is in the
  /// verdict store replay their cached diagnostics; the rest re-check over
  /// `Jobs` workers. Diagnostics and verdicts are byte-identical to
  /// check() on the same source at any job count.
  RecheckOutcome recheck(const std::string &Source);

  /// Result of load(): every input compiled as its own translation unit,
  /// plus the cross-TU link step's verdict.
  struct LoadOutcome {
    /// Every TU preprocessed/parsed/sema'd/lowered/verified clean.
    bool FrontEndOk = false;
    /// The cross-TU symbol resolution found no conflicts.
    bool LinkOk = false;
    bool ok() const { return FrontEndOk && LinkOk; }
    std::vector<frontend::TUnit> Units;
  };
  /// The real-C multi-TU front end: each input is preprocessed
  /// (SessionOptions::IncludeDirs/Defines), parsed, sema-checked, and
  /// lowered as an independent TU, fanned over `Jobs` workers; per-TU
  /// diagnostics are remapped to file-attributed user coordinates and
  /// merged in input order (byte-identical at any job count), and
  /// frontend::linkUnits then unifies the per-TU symbol tables.
  LoadOutcome load(const std::vector<frontend::InputFile> &Inputs);

  /// Result of checkFiles(): the multi-TU load plus the typechecker's
  /// verdict merged over every TU in input order.
  struct CheckFilesOutcome {
    LoadOutcome Load;
    checker::CheckResult Result;
    checker::ParallelStats Pipeline;
    bool ok() const { return Load.ok() && Result.ok(); }
  };
  /// Multi-TU front end + extensible typechecker over every unit (TUs in
  /// input order, each sharded over `Jobs` workers).
  CheckFilesOutcome checkFiles(const std::vector<frontend::InputFile> &Inputs);

  /// Result of recheckFiles(): as checkFiles(), but through the
  /// incremental engine (record lists are counts).
  struct RecheckFilesOutcome {
    LoadOutcome Load;
    checker::incremental::RecheckResult Result;
    checker::incremental::RecheckStats Stats;
    bool ok() const { return Load.ok() && Result.ok(); }
  };
  /// Multi-TU front end + incremental re-check. Every work item's content
  /// hash folds in its TU's post-preprocess stream hash, so editing a
  /// header re-checks every translation unit that includes it.
  RecheckFilesOutcome
  recheckFiles(const std::vector<frontend::InputFile> &Inputs);

  /// Result of frontEnd().
  struct FrontEndOutcome {
    bool Ok = false;
    std::unique_ptr<cminus::Program> Program;
  };
  /// Just the front end (parse, sema, lower, verify) — for tools and
  /// benchmarks that drive the checker themselves.
  FrontEndOutcome frontEnd(const std::string &Source);

  /// Soundness-checks every loaded qualifier (obligations fan out over
  /// `Jobs` workers, memoized in the session's prover cache).
  std::vector<soundness::SoundnessReport> prove();
  /// Soundness-checks one qualifier by name.
  soundness::SoundnessReport proveQualifier(const std::string &Name);

  /// Result of run(): the checking stage's outcome plus the execution.
  struct RunOutcome {
    CheckOutcome Check;
    interp::RunResult Run;
  };
  /// Front end + typechecker + instrumented execution. Qualifier warnings
  /// do not block execution (as in the paper); front-end errors yield
  /// RunStatus::SetupError.
  RunOutcome run(const std::string &Source);

  /// Result of infer(): the first-class inference report (suggestions
  /// keyed by (unit, function, variable, location), per-qualifier
  /// provenance, solver stats) under SessionOptions::Infer.
  struct InferenceReport {
    bool FrontEndOk = false;
    checker::InferenceReport Report;
    /// Apply-mode only: the program re-printed with the minimal suggested
    /// set applied to its declared types (empty otherwise). Byte-stable
    /// across runs and job counts; re-checks clean by construction of the
    /// greatest fixpoint.
    std::string AnnotatedSource;
    std::unique_ptr<cminus::Program> Program;
  };
  /// Front end + whole-program qualifier inference (section 8 future
  /// work) through the sharded constraint engine. Prover-backed
  /// suggestion minimization memoizes into proverCache().
  InferenceReport infer(const std::string &Source);

  /// The loaded qualifier set (empty before loadQualifiers()); the shared
  /// set when SessionOptions::SharedQualifiers is set.
  const qual::QualifierSet &qualifiers() const { return *QualsView; }
  /// Every diagnostic reported so far, across all calls.
  DiagnosticEngine &diags() { return Diags; }
  const DiagnosticEngine &diags() const { return Diags; }
  /// The memoized prover cache: session-lifetime by default, the shared
  /// cache when SessionOptions::SharedCache is set.
  prover::ProverCache &proverCache() { return *CachePtr; }
  /// The metrics registry every stage publishes into.
  stats::Registry &metrics() { return Metrics; }
  const SessionOptions &options() const { return Opts; }

  /// Emits a snapshot of the session's metrics (after publishing derived
  /// gauges such as the prover-cache hit rate).
  void emitMetrics(std::ostream &OS, metrics::Format Format);

private:
  /// parse + sema + lower + verify, recording phase.*_seconds.
  std::unique_ptr<cminus::Program> frontEnd(const std::string &Source,
                                            bool &Ok);
  /// The shared per-TU compile configuration for load().
  frontend::CompileOptions compileOptions() const;
  /// Remaps a unit's diagnostics \p Ds through \p U's line map and
  /// re-reports them into the session engine.
  void reportUnitDiags(std::vector<Diagnostic> Ds, const frontend::TUnit &U);
  void publishCheckMetrics(bool FrontEndOk, const checker::CheckResult &Result,
                           const checker::ParallelStats &Pipeline);
  void publishRecheckMetrics(bool FrontEndOk,
                             const checker::incremental::RecheckResult &Result,
                             const checker::incremental::RecheckStats &Stats);
  void publishFrontendMetrics(const LoadOutcome &Out, const pp::PpStats &Pp);
  /// The engine recheck() uses: the shared one when wired, else a lazily
  /// created session-owned engine.
  checker::incremental::Engine &incrementalEngine();
  void publishProveMetrics(const std::vector<soundness::SoundnessReport> &);
  void publishRunMetrics(const interp::RunResult &R);
  void publishCacheMetrics();
  void publishDiagMetrics();
  /// Loads Opts.CacheFile into the cache (first call only; no-op when the
  /// option is empty).
  void loadCacheFile();
  /// Saves the cache to Opts.CacheFile (no-op when the option is empty).
  void saveCacheFile();

  SessionOptions Opts;
  DiagnosticEngine Diags;
  /// Owned qualifier set; unused when Opts.SharedQualifiers is set.
  qual::QualifierSet Quals;
  /// Owned prover cache; unused when Opts.SharedCache is set.
  prover::ProverCache Cache;
  /// The set/cache every stage actually uses (owned or shared).
  const qual::QualifierSet *QualsView = &Quals;
  prover::ProverCache *CachePtr = &Cache;
  stats::Registry Metrics;
  /// Owned incremental engine, created on first recheck(); unused when
  /// Opts.SharedIncremental is set.
  std::unique_ptr<checker::incremental::Engine> OwnedIncremental;

  enum class LoadState { NotLoaded, Ok, Failed };
  LoadState Loaded = LoadState::NotLoaded;
  bool CacheFileLoaded = false;
  bool CacheSaveWarned = false;
};

} // namespace stq

#endif // STQ_DRIVER_SESSION_H
