// mrts_serve — the persistent mRTS job-ingestion server.
//
//   mrts_serve --socket <path> [shape/limit flags]
//       Serve mrts.wire.v1 (docs/PROTOCOL.md) on an AF_UNIX socket: accept
//       tenant jobs, admit them through the resident FabricArbiter, run
//       admitted jobs on one resident fabric and stream each job's
//       RunReport JSON + counter deltas back to its client. SIGINT/SIGTERM
//       drain the queue and shut down cleanly; --exit-after bounds the run
//       for CI. docs/SERVING.md describes the lifecycle, threading model
//       and determinism contract.
//
//   mrts_serve --replay <joblog> [--out <file>]
//       Replay a job log (mrts.joblog.v1, written via --job-log) through a
//       fresh sim core and print every job's final record. Byte-identical
//       to what the live server streamed for the same log — the serve-smoke
//       CI job diffs the two.
//
// Exit code 0 on success, 1 on usage errors, 2 on input/runtime errors.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/serve_core.h"
#include "serve/server.h"
#include "util/cli_spec.h"

namespace {

using namespace mrts;
using namespace mrts::serve;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

const CliSpec& cli_spec() {
  static const CliSpec spec = [] {
    CliSpec s("mrts_serve", "persistent mRTS job-ingestion server "
                            "(mrts.wire.v1 over AF_UNIX)",
              "exit codes: 0 success, 1 usage error, 2 input error");
    CliVerb& main_verb = s.add_verb("", "", "");
    main_verb.flags = {
        {"--socket", "<path>", "AF_UNIX socket path to serve on (required "
                               "unless --replay)"},
        {"--prcs", "<n>", "resident fabric: FG containers (default 6)"},
        {"--cg", "<n>", "resident fabric: CG fabrics (default 2)"},
        {"--job-classes", "<n>", "synthetic kernel classes (default 4)"},
        {"--max-blocks", "<n>", "per-job functional-block ceiling (default 64)"},
        {"--macroblocks", "<n>", "macroblock-loop length per block (default 24)"},
        {"--max-queue", "<n>", "queued-job ceiling (default 256)"},
        {"--retain-jobs", "<n>", "polled finished-job records kept for late "
                                 "status polls (default 1024)"},
        {"--exit-after", "<sessions>",
         "exit once this many sessions have closed (default 0 = run until "
         "SIGINT/SIGTERM)"},
        {"--job-log", "<file>", "write the mrts.joblog.v1 operation log at "
                                "shutdown"},
        {"--replay", "<joblog>", "replay a job log through a fresh sim core "
                                 "instead of serving"},
        {"--out", "<file>", "replay output file (default stdout)"},
        {"--quiet", "", "suppress the shutdown accounting summary"},
    };
    return s;
  }();
  return spec;
}

int run_replay(const std::string& joblog_path, const std::string& out_path) {
  std::ifstream in(joblog_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", joblog_path.c_str());
    return 2;
  }
  const ReplayResult result = replay_job_log(in);
  if (!result.ok) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 2;
  }
  std::ostringstream os;
  for (const ReplayJob& job : result.jobs) write_replay_record(os, job);
  if (out_path.empty()) {
    std::fputs(os.str().c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  out << os.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  std::string replay_path;
  std::string out_path;

  CliArgs args = CliSpec::parse(*cli_spec().verb(""), argc, argv, 1);
  if (args.help) {
    std::fputs(cli_spec().help().c_str(), stdout);
    return 0;
  }
  if (!args.ok() || !args.read_text("--socket", &config.socket_path) ||
      !args.read_text("--job-log", &config.job_log_path) ||
      !args.read_text("--replay", &replay_path) ||
      !args.read_text("--out", &out_path) ||
      !args.read("--exit-after", 0, 1u << 30, &config.exit_after_sessions)) {
    return cli_spec().reject(args.error);
  }
  for (const ServeConfigField& f : serve_config_fields()) {
    std::uint64_t value = f.get(config.core);
    if (!args.read(f.flag, f.lo, f.hi, &value)) {
      return cli_spec().reject(args.error);
    }
    f.set(config.core, value);
  }
  config.quiet = args.has("--quiet");

  if (!replay_path.empty()) return run_replay(replay_path, out_path);
  if (config.socket_path.empty()) return cli_spec().usage();

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // A client tearing down mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  Server server(std::move(config));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "error: cannot listen: %s\n", err.c_str());
    return 2;
  }
  return server.run(&g_stop);
}
