//===- stqc.cpp - The semantic-type-qualifier compiler driver -------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// A thin command-line layer over the shared invocation executor
// (server/Exec.h), which itself drives stq::Session:
//
//   stqc prove  [--builtins a,b,..] [--qualfile F] [--jobs N] [--warm-cache]
//               [--cache-file PATH]
//       verify every loaded qualifier's type rules against its invariant;
//       obligations fan out over N workers backed by the memoized prover
//       cache (--warm-cache primes it with a silent first pass;
//       --cache-file persists it across runs)
//   stqc check  (FILE... | -e SRC) [-I DIR] [-D NAME[=V]] [--builtins ..]
//               [--qualfile F] [--flow-sensitive] [--jobs N]
//       run the extensible typechecker, sharded across N workers; exit
//       nonzero on qualifier errors. Several FILEs (or any -I/-D) select
//       the real-C front end: each file is preprocessed (#include,
//       macros, conditionals) and compiled as its own translation unit in
//       parallel, then link-checked across TUs
//   stqc recheck (FILE... | -e SRC) [-I DIR] [-D NAME[=V]] [--builtins ..]
//               [--unit NAME] [--jobs N]
//       like check, but through the incremental engine: functions whose
//       content hash is already in the verdict store replay their cached
//       verdicts. Output is byte-identical to check; against a daemon
//       (--server) the store stays warm across edits
//   stqc run    (FILE | -e SRC) [--builtins ..] [--entry NAME]
//       typecheck, instrument casts, and execute
//   stqc infer  (FILE | -e SRC) [--builtins ..] [--scope S]
//               [--max-suggestions N] [--apply] [--format text|json] [-j N]
//       infer value-qualifier annotations (section 8 future work) with the
//       sharded constraint engine and prover-minimized suggestions;
//       --apply prints the annotated program, --format json emits the
//       stq-inference-v1 document
//   stqc dump-builtin NAME
//       print a builtin qualifier's definition in the qualifier DSL
//   stqc status|shutdown --server SOCKET
//       query or drain a running stqd daemon
//
// `--server SOCKET` sends prove/check/run/infer to a running stqd instead
// of executing locally; the printed bytes and the exit code are identical
// (both paths run server::executeInvocation), but the daemon's prover
// cache stays warm across requests. Input files and qualifier files are
// read locally and shipped as text — the daemon never sees client paths.
//
// Every subcommand also accepts the observability options
// (docs/OBSERVABILITY.md):
//
//   --metrics[=FORMAT]   print pipeline counters to stdout (text or json)
//   --trace FILE         write a Chrome trace-event JSON file of the run
//   --diagnostics FORMAT render diagnostics as text (default) or json
//
// Exit codes (also documented in README.md): 0 success; 1 qualifier or
// soundness failure; 2 usage or front-end error; 3 run-time check
// failure; 4 trap; 5 fuel exhausted; 6 server unavailable, busy, or
// protocol error.
//
//===----------------------------------------------------------------------===//

#include "driver/OptionTable.h"
#include "qual/Builtins.h"
#include "server/Protocol.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace stq;

namespace {

struct CliOptions {
  std::string Command;
  /// Positional input files, in command-line order. check/recheck accept
  /// several (the multi-TU front end); the other subcommands take one.
  std::vector<std::string> Files;
  std::string InlineSource;
  std::string DumpName;
  std::string ServerSocket;
  SessionOptions Session;
  bool Metrics = false;
  metrics::Format MetricsFormat = metrics::Format::Text;
  std::string TraceFile;
  bool JsonDiagnostics = false;
  bool InferJson = false;
  bool ShowHelp = false;
  bool ShowVersion = false;
};

cli::OptionTable buildOptionTable(CliOptions &Options) {
  cli::OptionTable Table;
  Table.value("--builtins", "", "a,b,..",
              "load the named builtin qualifiers",
              [&](const std::string &V, std::string &) {
                auto More = cli::splitCommas(V);
                Options.Session.Builtins.insert(
                    Options.Session.Builtins.end(), More.begin(), More.end());
                return true;
              });
  Table.value("--qualfile", "", "F", "load a qualifier-DSL file",
              [&](const std::string &V, std::string &) {
                Options.Session.QualFiles.push_back(V);
                return true;
              });
  Table.value("--entry", "", "NAME", "entry function for `run`",
              [&](const std::string &V, std::string &) {
                Options.Session.Interp.EntryPoint = V;
                return true;
              });
  Table.value("--backend", "", "ENGINE",
              "run: execution engine (vm or interp; default vm)",
              [&](const std::string &V, std::string &Error) {
                if (V == "vm") {
                  Options.Session.Backend =
                      SessionOptions::ExecBackend::Vm;
                } else if (V == "interp") {
                  Options.Session.Backend =
                      SessionOptions::ExecBackend::Interp;
                } else {
                  Error = "bad --backend value '" + V +
                          "' (expected vm or interp)";
                  return false;
                }
                return true;
              });
  Table.flag("--no-elide-checks", "",
             "run: keep every run-time qualifier check (vm backend only; "
             "disables prover-driven check elision)",
             [&] { Options.Session.VmElideChecks = false; });
  Table.value("--unit", "", "NAME",
              "recheck: unit name for signature-change invalidation "
              "(defaults to the empty unit)",
              [&](const std::string &V, std::string &) {
                Options.Session.IncrementalUnit = V;
                return true;
              });
  Table.value("-I", "", "DIR",
              "check/recheck: add DIR to the #include search path "
              "(selects the preprocessing front end)",
              [&](const std::string &V, std::string &) {
                Options.Session.IncludeDirs.push_back(V);
                return true;
              });
  Table.value("-D", "", "NAME[=V]",
              "check/recheck: predefine a macro (V defaults to 1; selects "
              "the preprocessing front end)",
              [&](const std::string &V, std::string &) {
                Options.Session.Defines.push_back(V);
                return true;
              });
  Table.value("-e", "", "SRC", "inline C-minus source",
              [&](const std::string &V, std::string &) {
                Options.InlineSource = V;
                return true;
              });
  Table.flag("--flow-sensitive", "",
             "enable flow-sensitive qualifier narrowing", [&] {
               Options.Session.Checker.FlowSensitiveNarrowing = true;
             });
  Table.value("--jobs", "-j", "N",
              "worker threads for check/prove (0 = hardware)",
              [&](const std::string &V, std::string &Error) {
                unsigned N = 0;
                if (!cli::parseUnsigned(V, N)) {
                  Error = "bad --jobs value '" + V + "'";
                  return false;
                }
                Options.Session.Jobs = N == 0 ? ThreadPool::defaultJobs() : N;
                return true;
              });
  Table.value("--scope", "", "NAME",
              "infer: inference scope (program or locals)",
              [&](const std::string &V, std::string &Error) {
                if (!checker::parseScopeName(V, Options.Session.Infer.Scope)) {
                  Error = "bad --scope value '" + V +
                          "' (expected program or locals)";
                  return false;
                }
                return true;
              });
  Table.value("--max-suggestions", "", "N",
              "infer: report at most N suggestion entries (0 = unlimited; "
              "ignored with --apply)",
              [&](const std::string &V, std::string &Error) {
                unsigned N = 0;
                if (!cli::parseUnsigned(V, N)) {
                  Error = "bad --max-suggestions value '" + V + "'";
                  return false;
                }
                Options.Session.Infer.MaxSuggestions = N;
                return true;
              });
  Table.flag("--apply", "",
             "infer: apply the minimal suggested set and print the "
             "annotated program",
             [&] { Options.Session.Infer.Apply = true; });
  Table.value("--format", "", "FORMAT",
              "infer: report rendering (text or json = stq-inference-v1)",
              [&](const std::string &V, std::string &Error) {
                if (V == "json") {
                  Options.InferJson = true;
                } else if (V != "text") {
                  Error = "bad --format value '" + V +
                          "' (expected text or json)";
                  return false;
                }
                return true;
              });
  Table.flag("--warm-cache", "",
             "prove: prime the prover cache with a silent first pass",
             [&] { Options.Session.WarmProverCache = true; });
  Table.value("--cache-file", "", "PATH",
              "prove: persist the prover cache across runs (load before, "
              "save after; stale or corrupt files are ignored)",
              [&](const std::string &V, std::string &) {
                Options.Session.CacheFile = V;
                return true;
              });
  Table.value("--server", "", "SOCKET",
              "send the command to the stqd daemon at this socket",
              [&](const std::string &V, std::string &) {
                Options.ServerSocket = V;
                return true;
              });
  Table.optionalValue("--metrics", "FORMAT",
                      "print pipeline metrics (text or json)",
                      [&](const std::string &V, std::string &Error) {
                        auto F = metrics::parseFormat(V);
                        if (!F) {
                          Error = "bad --metrics format '" + V +
                                  "' (expected text or json)";
                          return false;
                        }
                        Options.Metrics = true;
                        Options.MetricsFormat = *F;
                        return true;
                      });
  Table.value("--trace", "", "FILE",
              "write a Chrome trace-event JSON file",
              [&](const std::string &V, std::string &) {
                Options.TraceFile = V;
                return true;
              });
  Table.value("--diagnostics", "", "FORMAT",
              "diagnostic rendering (text or json)",
              [&](const std::string &V, std::string &Error) {
                if (V == "json") {
                  Options.JsonDiagnostics = true;
                } else if (V != "text") {
                  Error = "bad --diagnostics format '" + V +
                          "' (expected text or json)";
                  return false;
                }
                return true;
              });
  Table.flag("--version", "", "print the protocol versions this build speaks",
             [&] { Options.ShowVersion = true; });
  Table.flag("--help", "-h", "show this help",
             [&] { Options.ShowHelp = true; });
  Table.positional([&](const std::string &Arg, std::string &Error) {
    if (Options.Command == "dump-builtin" && Options.DumpName.empty()) {
      Options.DumpName = Arg;
      return true;
    }
    bool MultiOk =
        Options.Command == "check" || Options.Command == "recheck";
    if (Options.Files.empty() || MultiOk) {
      Options.Files.push_back(Arg);
      return true;
    }
    Error = "unexpected argument '" + Arg + "'";
    return false;
  });
  return Table;
}

void usage(const cli::OptionTable &Table) {
  std::printf(
      "usage:\n"
      "  stqc prove  [--builtins a,b,..] [--qualfile F] [--jobs N]"
      " [--warm-cache] [--cache-file PATH]\n"
      "  stqc check  (FILE... | -e SRC) [-I DIR] [-D NAME[=V]]"
      " [--builtins ..] [--qualfile F]\n"
      "              [--flow-sensitive] [--jobs N]\n"
      "  stqc recheck (FILE... | -e SRC) [-I DIR] [-D NAME[=V]]"
      " [--builtins ..] [--unit NAME]\n"
      "              [--jobs N]\n"
      "  stqc run    (FILE | -e SRC) [--builtins ..] [--entry NAME]\n"
      "  stqc infer  (FILE | -e SRC) [--builtins ..] [--qualfile F]"
      " [--scope S]\n"
      "              [--max-suggestions N] [--apply] [--format text|json]"
      " [--jobs N]\n"
      "  stqc dump-builtin NAME\n"
      "  stqc status|shutdown --server SOCKET\n"
      "options:\n%s"
      "builtin qualifiers: pos neg nonneg nonzero nonnull tainted"
      " untainted unique unaliased\n",
      Table.helpText().c_str());
}

bool getProgramSource(const CliOptions &Options, std::string &Out) {
  if (!Options.InlineSource.empty()) {
    Out = Options.InlineSource;
    return true;
  }
  if (Options.Files.empty()) {
    std::fprintf(stderr, "stqc: no input (pass FILE or -e SRC)\n");
    return false;
  }
  std::string Error;
  if (!readFileToString(Options.Files.front(), Out, Error)) {
    std::fprintf(stderr, "stqc: %s\n", Error.c_str());
    return false;
  }
  return true;
}

void writeTraceFile(const std::string &Path, const std::string &TraceJson) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "stqc: cannot write trace file '%s'\n",
                 Path.c_str());
    return;
  }
  OS << TraceJson;
}

/// Prints an ExecResult the way the historical stqc printed directly to
/// its streams, and materializes the trace file.
int emitResult(const server::ExecResult &R, const CliOptions &Options) {
  std::fwrite(R.Out.data(), 1, R.Out.size(), stdout);
  std::fwrite(R.Err.data(), 1, R.Err.size(), stderr);
  if (!Options.TraceFile.empty())
    writeTraceFile(Options.TraceFile, R.TraceJson);
  return R.ExitCode;
}

/// Sends one request to the daemon and returns its response. Transport
/// and protocol failures exit with code 6.
int runViaServer(const CliOptions &Options, server::rpc::Request Req) {
  UnixStream Conn;
  std::string Error;
  if (!Conn.connect(Options.ServerSocket, Error)) {
    std::fprintf(stderr, "stqc: cannot reach server: %s\n", Error.c_str());
    return 6;
  }
  if (!Conn.writeAll(server::rpc::encodeRequest(Req) + "\n", Error)) {
    std::fprintf(stderr, "stqc: cannot send request: %s\n", Error.c_str());
    return 6;
  }
  std::string Line;
  // Generous response budget: a cold `prove --jobs 1` can take a while.
  if (!Conn.readLine(Line, /*MaxBytes=*/64u << 20, /*TimeoutMs=*/600000,
                     Error)) {
    std::fprintf(stderr, "stqc: no response from server%s%s\n",
                 Error.empty() ? "" : ": ", Error.c_str());
    return 6;
  }
  server::rpc::Response Resp;
  if (!server::rpc::parseResponse(Line, Resp, Error)) {
    std::fprintf(stderr, "stqc: %s\n", Error.c_str());
    return 6;
  }
  if (Resp.Status == "busy") {
    std::fprintf(stderr, "stqc: server busy: %s\n", Resp.Error.c_str());
    return 6;
  }
  if (Resp.Status != "ok") {
    std::fprintf(stderr, "stqc: server error: %s\n", Resp.Error.c_str());
    return 6;
  }
  server::ExecResult R;
  R.Out = std::move(Resp.Out);
  R.Err = std::move(Resp.Err);
  R.TraceJson = std::move(Resp.TraceJson);
  R.ExitCode = Resp.ExitCode;
  return emitResult(R, Options);
}

int cmdDumpBuiltin(const CliOptions &Options, const cli::OptionTable &Table) {
  if (Options.DumpName.empty()) {
    usage(Table);
    return 2;
  }
  std::string Source = qual::builtinQualifierSource(Options.DumpName);
  if (Source.empty()) {
    std::fprintf(stderr, "stqc: unknown builtin qualifier '%s'\n",
                 Options.DumpName.c_str());
    return 2;
  }
  std::printf("%s", Source.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  cli::OptionTable Table = buildOptionTable(Options);
  if (Argc < 2) {
    usage(Table);
    return 2;
  }
  Options.Command = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Options.Command == "--version") {
    std::printf("%s", server::rpc::versionText("stqc").c_str());
    return 0;
  }
  std::string Error;
  if (!Table.parse(Args, Error)) {
    std::fprintf(stderr, "stqc: %s\n", Error.c_str());
    usage(Table);
    return 2;
  }
  if (Options.ShowVersion) {
    std::printf("%s", server::rpc::versionText("stqc").c_str());
    return 0;
  }
  if (Options.ShowHelp) {
    usage(Table);
    return 2;
  }
  if (Options.Command == "dump-builtin")
    return cmdDumpBuiltin(Options, Table);

  bool IsControl = server::rpc::isControlCommand(Options.Command);
  if (!IsControl && !server::knownCommand(Options.Command)) {
    usage(Table);
    return 2;
  }
  if (IsControl && Options.ServerSocket.empty()) {
    std::fprintf(stderr, "stqc: '%s' requires --server SOCKET\n",
                 Options.Command.c_str());
    return 2;
  }

  server::rpc::Request Req;
  server::Invocation &Inv = Req.Inv;
  Inv.Command = Options.Command;
  Inv.Session = Options.Session;
  Inv.Metrics = Options.Metrics;
  Inv.MetricsFormat = Options.MetricsFormat;
  Inv.JsonDiagnostics = Options.JsonDiagnostics;
  Inv.InferJson = Options.InferJson;
  Inv.Trace = !Options.TraceFile.empty();

  bool NeedsSource = Options.Command == "check" ||
                     Options.Command == "recheck" ||
                     Options.Command == "run" || Options.Command == "infer";
  // Several input files, or any -I/-D, select the preprocessing multi-TU
  // front end. A single bare file keeps the classic C-minus pipeline (and
  // its byte-identical diagnostic rendering).
  bool MultiInput =
      (Options.Command == "check" || Options.Command == "recheck") &&
      Options.InlineSource.empty() &&
      (Options.Files.size() > 1 || !Options.Session.IncludeDirs.empty() ||
       !Options.Session.Defines.empty());
  if (MultiInput) {
    for (const std::string &Path : Options.Files) {
      frontend::InputFile In;
      In.Name = Path;
      if (!readFileToString(Path, In.Text, Error)) {
        std::fprintf(stderr, "stqc: %s\n", Error.c_str());
        return 2;
      }
      Inv.Inputs.push_back(std::move(In));
    }
    if (Inv.Inputs.empty()) {
      std::fprintf(stderr, "stqc: no input (pass FILE or -e SRC)\n");
      return 2;
    }
  } else if (NeedsSource &&
             (!Options.InlineSource.empty() || !Options.Files.empty())) {
    if (!getProgramSource(Options, Inv.Source))
      return 2;
    Inv.HasSource = true;
  }

  if (Options.ServerSocket.empty()) {
    // One-shot: the exact code path the daemon's workers run.
    return emitResult(server::executeInvocation(Inv), Options);
  }

  // Client mode: the daemon never touches caller paths, so qualifier
  // files are read here and shipped as inline DSL sources (same load
  // order: builtins, then files-as-sources).
  for (const std::string &Path : Inv.Session.QualFiles) {
    std::string Text;
    if (!readFileToString(Path, Text, Error)) {
      std::fprintf(stderr, "stqc: %s\n", Error.c_str());
      return 2;
    }
    Inv.Session.QualSources.push_back(std::move(Text));
  }
  Inv.Session.QualFiles.clear();
  // Cache persistence belongs to the daemon (its --cache-file).
  Inv.Session.CacheFile.clear();
  if (!Inv.Inputs.empty()) {
    // Ship the include closure collected here, so the daemon resolves the
    // same #include bytes without ever touching client paths.
    std::vector<std::pair<std::string, std::string>> ClosureInputs;
    for (const frontend::InputFile &In : Inv.Inputs)
      ClosureInputs.emplace_back(In.Name, In.Text);
    pp::PpOptions PO;
    PO.IncludeDirs = Inv.Session.IncludeDirs;
    PO.Defines = Inv.Session.Defines;
    Inv.Files = pp::collectIncludeClosure(ClosureInputs, PO);
    Inv.HasFiles = true;
  }
  return runViaServer(Options, std::move(Req));
}
