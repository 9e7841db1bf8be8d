//===- tools/intro_batch.cpp - Supervised batch analysis runner -----------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front of the supervision layer: analyzes a corpus of
/// textual-IR programs (.intro files), each in its own forked,
/// rlimit-guarded child, and reports every job as a classified event —
/// clean, retried, or quarantined.  See DESIGN.md section 9 and the README
/// walkthrough.
///
///   intro_batch [options] <file.intro | directory>...
///
///   --report=FILE        write the intro-batch-report-v1 JSON here
///   --quarantine=DIR     copy inputs of quarantined jobs here (plus a
///                        .reason.txt per input explaining the verdict)
///   --max-attempts=N     attempts per job before quarantine (default 3)
///   --deadline=SECONDS   per-child wall watchdog (default 60)
///   --cpu-limit=SECONDS  per-child RLIMIT_CPU (default 0 = off)
///   --mem-limit=MB       per-child RLIMIT_AS (default 0 = off; huge
///                        values saturate instead of wrapping)
///   --seed=N             retry-jitter seed (default 0x5eed)
///   --workers=N          supervisor threads (default 1)
///   --cache-dir=DIR      content-addressed Pass-A cache shared across
///                        jobs, retries, and repeated runs
///   --cache-max-entries=N  cap on cached entries (default 0 = no cap;
///                        a nonzero cap needs --cache-dir)
///   --no-deep            skip the deep ladder rung (start at the
///                        introspective rungs, which use the cache)
///   --chaos=SPEC@NAME    inject a process-level fault into job NAME;
///                        SPEC = crash|oom|spin|exit|garbage|truncate
///                        [:LEVEL][:UNTIL] (smoke tests; see ChaosPlan)
///   --server=SOCK        client mode: submit the jobs to the intro_serve
///                        daemon at Unix socket SOCK instead of forking
///                        locally; --report then writes an
///                        intro-serve-client-report-v1 document.  The
///                        jobs run under the daemon's own settings, so
///                        --quarantine, --workers and the shared
///                        supervision flags (--no-deep, --cache-dir, ...)
///                        are rejected here
///   --job-reports=DIR    write each job's final intro-run-report-v1 line
///                        to DIR/<name>.report.json (works in both local
///                        and server mode: the same jobs get a file — none
///                        without a healthy report — and the deterministic
///                        sections are byte-identical between the two)
///
/// Exit codes (support/ExitCodes.h): 0 all jobs clean; 1 at least one job
/// failed or was quarantined; 2 bad usage or unreadable inputs; 3 internal
/// error.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "supervise/Supervise.h"

#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/ParseNum.h"
#include "support/Socket.h"
#include "support/TableWriter.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace intro;
using namespace intro::supervise;
namespace fs = std::filesystem;

namespace {

/// One parsed --chaos flag.  SpecBody keeps the raw KIND[:LEVEL][:UNTIL]
/// text because server mode forwards it verbatim for the daemon to parse.
struct ChaosFlag {
  std::string Name;
  ChaosPlan Plan;
  std::string SpecBody;
};

struct CliOptions {
  std::vector<std::string> Inputs;
  std::string ReportPath;
  std::string QuarantineDir;
  std::string ServerSocket; ///< Nonempty: client mode against intro_serve.
  std::string JobReportsDir;
  BatchOptions Batch;
  /// Chaos specs keyed by job name, applied after corpus discovery.
  std::vector<ChaosFlag> Chaos;
};

/// Parses a `--chaos=` SPEC@NAME payload; the SPEC body grammar lives in
/// supervise::parseChaosPlan (shared with the serve protocol).
bool parseChaosSpec(const std::string &Spec, ChaosFlag &Out) {
  size_t At = Spec.rfind('@');
  if (At == std::string::npos || At + 1 >= Spec.size())
    return false;
  Out.Name = Spec.substr(At + 1);
  Out.SpecBody = Spec.substr(0, At);
  std::string Error;
  return parseChaosPlan(Out.SpecBody, Out.Plan, Error);
}

/// Flags whose settings live in the daemon: --server jobs run under
/// intro_serve's own configuration, and server mode has no quarantine copy.
constexpr std::string_view DaemonOwnedFlags[] = {
    "--quarantine", "--workers", "--no-deep", "--cache-dir",
    "--cache-max-entries", "--max-attempts", "--cpu-limit", "--mem-limit",
    "--seed"};

/// Parses the command line.  \returns an exit code to bail with, or -1 to
/// continue.
int parseCli(int argc, char **argv, CliOptions &Cli) {
  std::string Error;
  std::string DaemonFlag; ///< The first daemon-owned flag given, if any.
  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    std::string Value;
    std::string_view Name = std::string_view(Arg).substr(0, Arg.find('='));
    if (DaemonFlag.empty() &&
        std::find(std::begin(DaemonOwnedFlags), std::end(DaemonOwnedFlags),
                  Name) != std::end(DaemonOwnedFlags))
      DaemonFlag = Name;
    if (flagValue(Arg, "--report", Cli.ReportPath) ||
        flagValue(Arg, "--quarantine", Cli.QuarantineDir) ||
        flagValue(Arg, "--server", Cli.ServerSocket) ||
        flagValue(Arg, "--job-reports", Cli.JobReportsDir))
      continue;
    if (parseSharedBatchFlag(Arg, Cli.Batch, Error)) {
      if (!Error.empty())
        break;
      continue;
    }
    if (flagValue(Arg, "--deadline", Value)) {
      if (!parseF64("--deadline", Value, 0.0, 1e9,
                    Cli.Batch.Limits.WallDeadlineSeconds, Error))
        break;
      continue;
    }
    if (flagValue(Arg, "--chaos", Value)) {
      ChaosFlag Spec;
      if (!parseChaosSpec(Value, Spec)) {
        std::cerr << "error: bad --chaos spec '" << Value
                  << "' (expected KIND[:LEVEL][:UNTIL]@NAME)\n";
        return ExitBadInput;
      }
      Cli.Chaos.push_back(std::move(Spec));
      continue;
    }
    if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::cerr << "error: unknown flag '" << Arg << "'\n";
      return ExitBadInput;
    }
    Cli.Inputs.push_back(Arg);
  }
  if (!Error.empty()) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }
  if (!Cli.ServerSocket.empty() && !DaemonFlag.empty()) {
    std::cerr << "error: " << DaemonFlag
              << " cannot be combined with --server: the jobs run under the "
                 "daemon's own settings\n";
    return ExitBadInput;
  }
  if (!checkSharedBatchFlags(Cli.Batch, Error)) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }
  if (Cli.Inputs.empty()) {
    std::cerr << "usage: intro_batch [options] <file.intro | directory>...\n"
                 "       (see the file header or README for options)\n";
    return ExitBadInput;
  }
  return -1;
}

/// Expands files and directories into a name-sorted job list.  Jobs are
/// named by file stem; the sort keeps the batch order (and therefore the
/// deterministic report) independent of directory enumeration order.
int collectJobs(const CliOptions &Cli, std::vector<JobSpec> &Jobs) {
  std::vector<fs::path> Files;
  for (const std::string &Input : Cli.Inputs) {
    std::error_code Ec;
    if (fs::is_directory(Input, Ec)) {
      for (const fs::directory_entry &Entry :
           fs::directory_iterator(Input, Ec))
        if (Entry.path().extension() == ".intro")
          Files.push_back(Entry.path());
      if (Ec) {
        std::cerr << "error: cannot read directory: " << Input << "\n";
        return ExitBadInput;
      }
    } else if (fs::is_regular_file(Input, Ec)) {
      Files.push_back(Input);
    } else {
      std::cerr << "error: no such file or directory: " << Input << "\n";
      return ExitBadInput;
    }
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "error: cannot read: " << File.string() << "\n";
      return ExitBadInput;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    JobSpec Job;
    Job.Name = File.stem().string();
    Job.Source = Text.str();
    Jobs.push_back(std::move(Job));
  }
  if (Jobs.empty()) {
    std::cerr << "error: no .intro files found\n";
    return ExitBadInput;
  }
  // Two inputs from different directories may share a basename; suffix the
  // later ones (".2", ".3", ...) so report keys and quarantine file stems
  // never collide.  Runs after the sort, so the suffix assignment — and
  // with it the deterministic report and the quarantine listing — is
  // independent of directory enumeration order.
  disambiguateJobNames(Jobs);
  return -1;
}

/// Copies the quarantined inputs (and a reason file each) into the
/// quarantine directory.  \returns false on I/O failure.
bool quarantineInputs(const std::string &Dir, const std::vector<JobSpec> &Jobs,
                      const BatchResult &Batch) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    std::cerr << "error: cannot create quarantine dir: " << Dir << "\n";
    return false;
  }
  for (size_t Index = 0; Index < Batch.Jobs.size(); ++Index) {
    const JobResult &Job = Batch.Jobs[Index];
    if (!Job.Quarantined)
      continue;
    fs::path Input = fs::path(Dir) / (Job.Name + ".intro");
    std::ofstream Copy(Input);
    Copy << Jobs[Index].Source;
    std::ofstream Reason(fs::path(Dir) / (Job.Name + ".reason.txt"));
    Reason << "job: " << Job.Name << "\n"
           << "final class: " << jobOutcomeClassName(Job.FinalClass) << "\n"
           << "attempts: " << Job.Attempts.size() << "\n";
    for (const std::string &Error : Job.InputErrors)
      Reason << "input error: " << Error << "\n";
    if (!Copy || !Reason) {
      std::cerr << "error: cannot write quarantine files for " << Job.Name
                << "\n";
      return false;
    }
  }
  return true;
}

/// Writes each job's final report line (\p Lines, parallel to \p Jobs) to
/// DIR/<name>.report.json.  \returns false on I/O failure.
bool writeJobReports(const std::string &Dir, const std::vector<JobSpec> &Jobs,
                     const std::vector<std::string> &Lines) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    std::cerr << "error: cannot create job-reports dir: " << Dir << "\n";
    return false;
  }
  for (size_t Index = 0; Index < Jobs.size(); ++Index) {
    if (Lines[Index].empty())
      continue; // No healthy report line: nothing to write.
    const std::string &Name = Jobs[Index].Name;
    std::ofstream Out(fs::path(Dir) / (Name + ".report.json"));
    Out << Lines[Index] << '\n';
    if (!Out) {
      std::cerr << "error: cannot write job report for " << Name << "\n";
      return false;
    }
  }
  return true;
}

/// Client mode: submits every job to the intro_serve daemon at
/// Cli.ServerSocket over one connection, sequentially, and renders the
/// same summary table local mode prints.  The daemon's shared Pass-A cache
/// makes resubmissions warm regardless of which client ran first.
int runServerMode(const CliOptions &Cli, const std::vector<JobSpec> &Jobs) {
  serve::Client Remote;
  std::string Error;
  if (!Remote.connect(Cli.ServerSocket, Error)) {
    std::cerr << "error: " << Error << "\n";
    return ExitBadInput;
  }

  std::vector<serve::SubmitOutcome> Outcomes;
  Outcomes.reserve(Jobs.size());
  for (const JobSpec &Job : Jobs) {
    // The parsed plan cannot cross the wire; resolve the raw spec body
    // recorded at flag-parse time.
    std::string ChaosBody;
    for (const ChaosFlag &Flag : Cli.Chaos)
      if (Flag.Name == Job.Name)
        ChaosBody = Flag.SpecBody;
    serve::SubmitOutcome Outcome;
    if (!Remote.submit(Job.Name, Job.Source,
                       Cli.Batch.Limits.WallDeadlineSeconds, ChaosBody,
                       nullptr, Outcome, Error)) {
      std::cerr << "error: submit of '" << Job.Name << "' failed: " << Error
                << "\n";
      return ExitInternalError;
    }
    Outcomes.push_back(std::move(Outcome));
  }

  TableWriter Table({"job", "class", "attempts", "result", "state"});
  bool AnyFailed = false;
  for (size_t Index = 0; Index < Jobs.size(); ++Index) {
    const serve::SubmitOutcome &O = Outcomes[Index];
    bool Clean = O.State == "done" && O.FinalClass == "clean";
    AnyFailed |= !Clean;
    Table.addRow({Jobs[Index].Name,
                  O.FinalClass.empty() ? "-" : O.FinalClass,
                  TableWriter::num(O.Attempts),
                  Clean ? O.ResultLevel + "/" + O.ResultStatus
                        : std::string("-"),
                  O.State});
  }
  Table.print(std::cout);

  if (!Cli.ReportPath.empty()) {
    std::ofstream Out(Cli.ReportPath);
    if (!Out) {
      std::cerr << "error: cannot write report: " << Cli.ReportPath << "\n";
      return ExitInternalError;
    }
    JsonWriter J(Out);
    J.beginObject();
    J.key("schema");
    J.value("intro-serve-client-report-v1");
    J.key("server");
    J.value(Cli.ServerSocket);
    cache::CacheStats Totals;
    J.key("jobs");
    J.beginArray();
    for (size_t Index = 0; Index < Jobs.size(); ++Index) {
      const serve::SubmitOutcome &O = Outcomes[Index];
      J.beginObject();
      J.key("name");
      J.value(Jobs[Index].Name);
      J.key("job");
      J.value(O.JobId);
      J.key("state");
      J.value(O.State);
      J.key("final_class");
      J.value(O.FinalClass);
      J.key("attempts");
      J.value(O.Attempts);
      J.key("quarantined");
      J.value(O.Quarantined);
      J.key("cache");
      if (O.CacheEnabled) {
        Totals += O.Cache;
        cache::writeCacheStatsJson(J, O.Cache);
      } else {
        J.null();
      }
      J.endObject();
    }
    J.endArray();
    J.key("cache_totals");
    cache::writeCacheStatsJson(J, Totals);
    J.endObject();
    Out << '\n';
    std::cout << "\nclient report: " << Cli.ReportPath << "\n";
  }

  if (!Cli.JobReportsDir.empty()) {
    std::vector<std::string> Lines;
    for (const serve::SubmitOutcome &O : Outcomes)
      Lines.push_back(O.FinalReportLine);
    if (!writeJobReports(Cli.JobReportsDir, Jobs, Lines))
      return ExitInternalError;
  }

  return AnyFailed ? ExitAnalysisFailure : ExitSuccess;
}

} // namespace

int main(int argc, char **argv) try {
  // `intro_batch ... | head` must end with EPIPE-aware writes, not a
  // silent SIGPIPE death mid-batch (support/Socket.h policy).
  ignoreSigPipe();

  CliOptions Cli;
  Cli.Batch.Limits.WallDeadlineSeconds = 60;
  if (int Code = parseCli(argc, argv, Cli); Code >= 0)
    return Code;

  std::vector<JobSpec> Jobs;
  if (int Code = collectJobs(Cli, Jobs); Code >= 0)
    return Code;

  for (const ChaosFlag &Flag : Cli.Chaos) {
    bool Found = false;
    for (JobSpec &Job : Jobs)
      if (Job.Name == Flag.Name) {
        Job.Chaos = Flag.Plan;
        Found = true;
      }
    if (!Found) {
      std::cerr << "error: --chaos target '" << Flag.Name
                << "' is not a job\n";
      return ExitBadInput;
    }
  }

  if (!Cli.ServerSocket.empty())
    return runServerMode(Cli, Jobs);

  BatchResult Batch = runSupervisedBatch(Jobs, Cli.Batch);

  if (!Cli.JobReportsDir.empty()) {
    std::vector<std::string> Lines;
    for (const JobResult &Job : Batch.Jobs)
      Lines.push_back(Job.ReportLine);
    if (!writeJobReports(Cli.JobReportsDir, Jobs, Lines))
      return ExitInternalError;
  }

  TableWriter Table({"job", "class", "attempts", "result", "quarantined"});
  for (const JobResult &Job : Batch.Jobs) {
    std::string Result = Job.FinalClass == JobOutcomeClass::Clean
                             ? Job.ResultLevel + "/" + Job.ResultStatus
                             : std::string("-");
    Table.addRow({Job.Name, jobOutcomeClassName(Job.FinalClass),
                  TableWriter::num(static_cast<uint64_t>(Job.Attempts.size())),
                  Result, Job.Quarantined ? "yes" : "no"});
  }
  Table.print(std::cout);

  if (!Cli.ReportPath.empty()) {
    std::ofstream Out(Cli.ReportPath);
    if (!Out) {
      std::cerr << "error: cannot write report: " << Cli.ReportPath << "\n";
      return ExitInternalError;
    }
    JsonWriter J(Out);
    writeBatchReportJson(J, Batch, Cli.Batch);
    Out << '\n';
    std::cout << "\nbatch report: " << Cli.ReportPath << "\n";
  }

  bool AnyQuarantined = false;
  for (const JobResult &Job : Batch.Jobs)
    AnyQuarantined |= Job.Quarantined;
  if (AnyQuarantined && !Cli.QuarantineDir.empty()) {
    if (!quarantineInputs(Cli.QuarantineDir, Jobs, Batch))
      return ExitInternalError;
    std::cout << "quarantined inputs copied to: " << Cli.QuarantineDir << "\n";
  }

  return AnyQuarantined ? ExitAnalysisFailure : ExitSuccess;
} catch (const std::exception &Error) {
  std::cerr << "internal error: " << Error.what() << "\n";
  return ExitInternalError;
} catch (...) {
  std::cerr << "internal error: unknown exception\n";
  return ExitInternalError;
}
