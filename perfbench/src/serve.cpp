// serve_open_loop: the built mrts_serve binary over its AF_UNIX socket,
// driven open-loop at a fixed offered rate by one client connection at a
// time, one session per job (connect, HELLO, SUBMIT, poll to a final state,
// DISCONNECT), with mrts_loadgen's job mix.

#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "report.h"
#include "serve/client.h"
#include "serve/serve_core.h"
#include "serve/wire.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace mrts;
using namespace mrts::serve;

/// Nominal offered rate of the open loop (jobs per second, Poisson). One
/// connection serves a job in about 0.13 ms, so about a fifth of the jobs
/// arrive while their predecessor is still in flight and wait for it. p90
/// then lies inside that waiting share; at 1000 jobs/s it sat on the edge
/// between the two shares and jumped with every small change of either.
constexpr double kRateJobsPerS = 2000.0;
/// The measured phase offers one seeded sequence of kSequenceS seconds of
/// jobs again and again, back to back. A job's latency is its best over the
/// repeats (the batch workloads' best-of-N per operation): the host slows
/// single CPUs by up to 2x for seconds at a time, so a repeat outside such a
/// spell shows the server's own latency. The percentiles run over the
/// distinct jobs. The tail reported is p90: the host's preemption stalls of
/// a few milliseconds delay a fraction of a percent of the jobs, which p99
/// feels and p90 does not. The whole-run percentiles are printed on stderr.
constexpr double kSequenceS = 0.5;
/// Resident fabric of the served machine.
constexpr unsigned kServerPrcs = 8;
constexpr unsigned kServerCg = 4;

/// One mrts_serve child process: spawned with its stdout on a pipe, stopped
/// with SIGTERM; stop() collects the shutdown summary and peak RSS.
class ServerProcess {
 public:
  ServerProcess(const Options& options, const std::string& socket_path,
                const std::string& job_log)
      : socket_path_(socket_path) {
    ::unlink(socket_path.c_str());
    int fds[2];
    if (::pipe(fds) != 0) return;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string prcs = std::to_string(kServerPrcs);
    const std::string cg = std::to_string(kServerCg);
    std::vector<std::string> args = {options.serve_bin, "--socket",
                                     socket_path, "--prcs", prcs, "--cg", cg};
    if (!job_log.empty()) {
      args.push_back("--job-log");
      args.push_back(job_log);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, options.serve_bin.c_str(), &actions, nullptr,
                    argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    stdout_fd_ = fds[0];
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Waits (up to 5 s) until the server has bound its socket.
  bool wait_for_socket() const {
    struct stat st {};
    for (int i = 0; i < 25000 && running(); ++i) {
      if (::stat(socket_path_.c_str(), &st) == 0) return true;
      ::usleep(200);
    }
    return false;
  }

  /// SIGTERM, drain the summary, reap. Idempotent.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      char buf[4096];
      for (;;) {
        const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
        if (n <= 0) break;
        summary_.append(buf, static_cast<std::size_t>(n));
      }
      int status = 0;
      rusage usage{};
      ::wait4(pid_, &status, 0, &usage);
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
      exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  const std::string& summary() const { return summary_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  bool exit_ok() const { return exit_ok_; }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string summary_;
  double peak_rss_mb_ = 0.0;
  bool exit_ok_ = false;
};

/// Value of `key=` in the server's shutdown summary (-1 when absent).
long long summary_field(const std::string& summary, const std::string& line,
                        const std::string& key) {
  const std::size_t at = summary.find(line);
  if (at == std::string::npos) return -1;
  const std::size_t eol = summary.find('\n', at);
  const std::string text = summary.substr(at, eol - at);
  const std::size_t k = text.find(" " + key + "=");
  if (k == std::string::npos) return -1;
  return std::atoll(text.c_str() + k + key.size() + 2);
}

/// mrts_loadgen's job mix, restricted to specs that fit the HELLO shape
/// (its deliberately oversized reservations are a robustness test, not
/// traffic).
SubmitFrame make_job(Rng& rng, const HelloOkFrame& shape,
                     std::uint64_t index) {
  SubmitFrame job;
  job.name = "pb" + std::to_string(index);
  const std::uint64_t mix = rng.next_u64() % 10;
  if (mix < 6) {
    job.share = static_cast<std::uint8_t>(WireShare::kWeighted);
    job.weight = 1 + static_cast<std::uint32_t>(rng.next_u64() % 4);
  } else if (mix < 8) {
    job.share = static_cast<std::uint8_t>(WireShare::kBestEffort);
  } else {
    job.share = static_cast<std::uint8_t>(WireShare::kReserved);
    const std::uint32_t prcs = std::max(1u, shape.prcs);
    job.reserved_prcs = 1 + static_cast<std::uint32_t>(rng.next_u64() % prcs);
    job.reserved_cg =
        static_cast<std::uint32_t>(rng.next_u64() % (shape.cg + 1));
  }
  job.priority = static_cast<std::uint32_t>(rng.next_u64() % 3);
  job.job_class =
      static_cast<std::uint32_t>(rng.next_u64() % shape.job_classes);
  job.blocks = 1 + static_cast<std::uint32_t>(rng.next_u64() % 2);
  job.seed = rng.next_u64();
  return job;
}

/// Simulated kernel executions in a job's counter deltas.
std::uint64_t kexec_of(const std::string& counters_delta) {
  std::uint64_t n = 0;
  std::istringstream lines(counters_delta);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("ecu.executions.", 0) != 0) continue;
    const std::size_t plus = line.find(" +");
    if (plus != std::string::npos) n += std::stoull(line.substr(plus + 2));
  }
  return n;
}

/// Client-side record of one scheduled job.
struct JobOutcome {
  bool ok = false;
  std::string error;
  std::uint64_t job_id = 0;
  JobStatusFrame status;
  double latency_ms = 0.0;  ///< due time -> final poll
  double late_ms = 0.0;     ///< due time -> send
  double submit_rtt_ms = 0.0;
  bool first_poll_final = false;
  unsigned poll_calls = 0;
};

/// Moves this thread and a child process round the CPUs the process may
/// use, one step at a time; the destructor restores this thread's original
/// affinity.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins this thread and process \p other to allowed CPU number \p step
  /// modulo their count. No-op when affinity is unavailable.
  void pin(std::size_t step, pid_t other) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    if (other > 0) ::sched_setaffinity(other, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// One job's session: connect, HELLO, SUBMIT, poll to a final state
/// (one poll_job, then Client::poll_until_final with its back-off),
/// DISCONNECT. The wait for the due time spins: a sleeping client would
/// let the CPU go idle and pay a host-dependent wake-up on every job. The
/// spin takes no time from the server, which is idle between jobs.
void run_job(const std::string& socket_path, const SubmitFrame& spec,
             Clock::time_point due, std::uint64_t index, Ledger* ledger,
             JobOutcome& out) {
  while (Clock::now() < due) {
  }
  const Clock::time_point sent = Clock::now();
  out.late_ms = 1e3 * seconds_between(due, sent);
  Span job_span(ledger, "client.job", index);
  Client client;
  std::string err;
  HelloOkFrame hello;
  {
    Span span(ledger, "client.connect", index);
    if (!client.connect_to(socket_path, &err)) {
      out.error = "connect: " + err;
      return;
    }
  }
  {
    Span span(ledger, "client.hello", index);
    if (!client.hello(&hello, &err)) {
      out.error = "HELLO: " + err;
      return;
    }
  }
  SubmitOkFrame submitted;
  {
    Span span(ledger, "client.submit", index);
    const Clock::time_point t0 = Clock::now();
    if (!client.submit(spec, &submitted, &err)) {
      out.error = "SUBMIT: " + err;
      return;
    }
    out.submit_rtt_ms = 1e3 * seconds_between(t0, Clock::now());
  }
  out.job_id = submitted.job_id;
  {
    Span span(ledger, "client.poll", index);
    ++out.poll_calls;
    if (!client.poll_job(submitted.job_id, &out.status, &err)) {
      out.error = "POLL: " + err;
      return;
    }
    out.first_poll_final =
        static_cast<WireJobState>(out.status.state) != WireJobState::kQueued;
    if (!out.first_poll_final) {
      ++out.poll_calls;
      if (!client.poll_until_final(submitted.job_id, &out.status, &err)) {
        out.error = "POLL: " + err;
        return;
      }
    }
  }
  out.latency_ms = 1e3 * seconds_between(due, Clock::now());
  ByeFrame bye;
  Span span(ledger, "client.disconnect", index);
  if (!client.disconnect(&bye, &err)) {
    out.error = "DISCONNECT: " + err;
    return;
  }
  out.ok = true;
}

/// Spawns a server and connects until HELLO_OK; returns the seconds taken
/// (negative on failure) and the shape.
double spawn_and_hello(const Options& options, const std::string& socket_path,
                       const std::string& job_log,
                       std::unique_ptr<ServerProcess>* server,
                       HelloOkFrame* shape) {
  const Clock::time_point t0 = Clock::now();
  *server = std::make_unique<ServerProcess>(options, socket_path, job_log);
  if (!(*server)->running() || !(*server)->wait_for_socket()) return -1.0;
  Client client;
  std::string err;
  if (!client.connect_to(socket_path, &err) || !client.hello(shape, &err)) {
    return -1.0;
  }
  const double seconds = seconds_between(t0, Clock::now());
  ByeFrame bye;
  client.disconnect(&bye, &err);
  return seconds;
}

/// One operation of the served job sequence, in job-log order.
struct LoggedOp {
  bool submit = false;  ///< submit (else run)
  std::uint64_t id = 0;
  SubmitFrame spec;
};

std::vector<LoggedOp> read_job_log(const std::string& job_log) {
  std::vector<LoggedOp> ops;
  std::ifstream in(job_log);
  std::string line;
  std::getline(in, line);  // header: the ServeConfig is ours
  while (std::getline(in, line)) {
    std::istringstream tok(line);
    std::string verb;
    tok >> verb;
    LoggedOp op;
    if (verb == "submit") {
      op.submit = true;
      unsigned share = 0;
      tok >> op.id >> op.spec.name >> share >> op.spec.weight >>
          op.spec.reserved_prcs >> op.spec.reserved_cg >> op.spec.priority >>
          op.spec.job_class >> op.spec.blocks >> op.spec.seed;
      op.spec.share = static_cast<std::uint8_t>(share);
    } else if (verb == "run") {
      tok >> op.id;
    } else {
      continue;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// In-process replay of the served job sequence through
/// ServeCore::submit/run_next/status and the wire codec (each request and
/// response frame encoded and decoded once), every call in its own span.
/// Returns the number of frames coded.
std::uint64_t replay_in_process(const std::vector<LoggedOp>& ops,
                                Ledger* ledger) {
  ServeConfig config;
  config.prcs = kServerPrcs;
  config.cg = kServerCg;
  ServeCore core(config);
  std::uint64_t frames = 0;
  auto roundtrip = [&](const auto& frame, auto* decoded) {
    std::vector<std::uint8_t> bytes;
    {
      Span span(ledger, "wire.encode");
      bytes = encode(frame);
    }
    Span span(ledger, "wire.decode");
    FrameDecoder decoder;
    decoder.feed(bytes);
    Frame raw;
    decoder.next(&raw);
    decode(raw, decoded);
    ++frames;
  };
  auto status = [&](std::uint64_t id) {
    PollFrame poll;
    poll.job_id = id;
    PollFrame poll_in;
    roundtrip(poll, &poll_in);
    JobStatusFrame st;
    {
      Span span(ledger, "serve.core_status");
      core.status(poll_in.job_id, &st);
    }
    JobStatusFrame st_in;
    roundtrip(st, &st_in);
  };
  for (const LoggedOp& op : ops) {
    if (op.submit) {
      SubmitFrame spec_in;
      roundtrip(op.spec, &spec_in);
      SubmitOkFrame ok;
      {
        Span span(ledger, "serve.core_submit");
        ok.job_id = core.submit(1, spec_in);
      }
      const JobRecord* job = core.job(ok.job_id);
      ok.admitted = job != nullptr && job->state == JobState::kQueued;
      SubmitOkFrame ok_in;
      roundtrip(ok, &ok_in);
      if (!ok.admitted) status(ok.job_id);
    } else {
      {
        Span span(ledger, "serve.core_run");
        core.run_next();
      }
      status(op.id);
    }
  }
  return frames;
}

}  // namespace

Result run_serve_open_loop(const Options& options) {
  Result result;
  const Clock::time_point epoch = Clock::now();
  const std::string tag = options.out_dir + "/serve-" + std::to_string(::getpid());
  // AF_UNIX paths are short: the socket lives under the checkout-relative
  // scratch directory.
  const std::string socket_path = tag + ".sock";
  const std::string job_log = tag + ".joblog";

  // Set-up: spawn until HELLO_OK, kSetupBefore times (the last server is
  // the measured one) and kSetupAfter more after the measured phase.
  std::vector<double> setup_times;
  std::unique_ptr<ServerProcess> server;
  HelloOkFrame shape;
  for (int i = 0; i < kSetupBefore; ++i) {
    if (server) server->stop();
    const double s = spawn_and_hello(options, socket_path,
                                     i + 1 == kSetupBefore ? job_log : "",
                                     &server, &shape);
    if (s < 0.0) {
      result.fail("setup: cannot start " + options.serve_bin);
      return result;
    }
    setup_times.push_back(s);
  }

  // The open-loop schedule and job mix, from the seed alone: `distinct`
  // jobs, offered `repeats` times in the same order and spacing.
  const double sequence_s = std::min<double>(kSequenceS, options.seconds);
  const auto distinct = static_cast<std::size_t>(
      std::max(1.0, std::round(kRateJobsPerS * sequence_s)));
  const auto repeats = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / sequence_s)));
  const std::size_t jobs = distinct * repeats;
  Rng rng(0x5e77e + options.seed);
  std::vector<double> due_s(jobs);
  std::vector<SubmitFrame> specs(jobs);
  double t = 0.0;
  for (std::size_t i = 0; i < distinct; ++i) {
    t += -std::log(1.0 - rng.uniform01()) / kRateJobsPerS;
    due_s[i] = t;
    specs[i] = make_job(rng, shape, i);
  }
  const double period_s = t + 1.0 / kRateJobsPerS;
  for (std::size_t i = distinct; i < jobs; ++i) {
    due_s[i] = due_s[i - distinct] + period_s;
    specs[i] = specs[i - distinct];
    specs[i].name = "pb" + std::to_string(i);
  }

  std::vector<JobOutcome> outcomes(jobs);
  Ledger client_ledger(epoch, 1);
  Ledger* ledger = options.trace ? &client_ledger : nullptr;
  // Client and server share one CPU, so each request is handed over by a
  // context switch instead of waking an idle CPU, which on a virtual
  // machine costs a hypervisor round trip whose price swings with the
  // host's load. Each repeat moves both to the next CPU: the host slows
  // single CPUs by up to 2x for seconds at a time, and a job's best repeat
  // then comes from whichever CPU was free of it. Set-ups run unpinned.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  {
    const CpuRotation rotation;
    for (std::size_t i = 0; i < jobs; ++i) {
      if (i % distinct == 0) rotation.pin(i / distinct, server->pid());
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s[i]));
      run_job(socket_path, specs[i], due, i + 1, ledger, outcomes[i]);
    }
  }
  Clock::time_point last_final = start;
  for (std::size_t i = 0; i < jobs; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    const auto fin = due + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   outcomes[i].latency_ms / 1e3));
    last_final = std::max(last_final, fin);
  }
  const double wall = seconds_between(start, last_final);
  server->stop();
  for (int i = 0; i < kSetupAfter; ++i) {
    std::unique_ptr<ServerProcess> again;
    HelloOkFrame again_shape;
    const double s =
        spawn_and_hello(options, socket_path, "", &again, &again_shape);
    if (s < 0.0) {
      result.fail("setup: cannot restart " + options.serve_bin);
      break;
    }
    setup_times.push_back(s);
  }

  // Accounting: every job must be served; a bounce is a refusal under load
  // and, like any failed job, counts as taking the whole measured phase.
  std::vector<double> latency, late, rtt;
  std::vector<double> best_ms(distinct, INFINITY);
  auto offer = [&](std::size_t i, double ms) {
    best_ms[i % distinct] = std::min(best_ms[i % distinct], ms);
  };
  std::uint64_t kexec = 0, bounced = 0, first_hits = 0, poll_calls = 0;
  std::map<std::uint64_t, const JobOutcome*> by_id;
  for (std::size_t i = 0; i < jobs; ++i) {
    const JobOutcome& o = outcomes[i];
    ++result.attempted;
    late.push_back(o.late_ms);
    if (!o.ok) {
      result.fail("job " + std::to_string(i + 1) + ": " + o.error);
      offer(i, 1e3 * wall);
      continue;
    }
    by_id[o.job_id] = &o;
    latency.push_back(o.latency_ms);
    rtt.push_back(o.submit_rtt_ms);
    poll_calls += o.poll_calls;
    first_hits += o.first_poll_final ? 1 : 0;
    const auto state = static_cast<WireJobState>(o.status.state);
    offer(i, state == WireJobState::kDone ? o.latency_ms : 1e3 * wall);
    if (state != WireJobState::kDone) {
      ++bounced;
      result.fail("job " + std::to_string(o.job_id) + " " + specs[i].name +
                  ": " + to_string(state) + " (" + o.status.reason + ")");
      continue;
    }
    kexec += kexec_of(o.status.counters_delta);
  }
  const std::string& summary = server->summary();
  ++result.attempted;
  if (!server->exit_ok() ||
      summary_field(summary, "sessions opened", "leaked") != 0 ||
      summary_field(summary, "fds opened", "leaked") != 0 ||
      summary_field(summary, "jobs submitted", "queued_left") != 0) {
    result.fail("server shutdown summary: leak or queued jobs left: " +
                summary);
  }

  // Output check: a job-log replay through a fresh ServeCore must give
  // every served job's final record byte for byte.
  std::ifstream log_in(job_log);
  const ReplayResult replay = replay_job_log(log_in);
  ++result.attempted;
  if (!replay.ok || replay.jobs.size() != by_id.size()) {
    result.fail("job-log replay: " +
                (replay.ok ? std::to_string(replay.jobs.size()) + " jobs, " +
                                 std::to_string(by_id.size()) + " served"
                           : replay.error));
  } else {
    for (const ReplayJob& r : replay.jobs) {
      const auto it = by_id.find(r.id);
      if (it == by_id.end() ||
          it->second->status.report_json != r.report_json ||
          it->second->status.counters_delta != r.counters_delta ||
          it->second->status.finished_at != r.finished_at) {
        result.fail("job-log replay: job " + std::to_string(r.id) +
                    " differs from what was served");
      }
    }
  }

  const double served = static_cast<double>(latency.size());
  if (options.trace) {
    Ledger ledger(epoch);
    ledger.merge(client_ledger);
    // Plain replay first: the traced replay's extra wall is the ledger's own
    // cost on this workload.
    const std::vector<LoggedOp> ops = read_job_log(job_log);
    const Clock::time_point p0 = Clock::now();
    replay_in_process(ops, nullptr);
    const double plain = seconds_between(p0, Clock::now());
    const Clock::time_point r0 = Clock::now();
    std::uint64_t frames = 0;
    {
      Span span(&ledger, "phase.replay");
      frames = replay_in_process(ops, &ledger);
    }
    const double traced = seconds_between(r0, Clock::now());
    result.layers["ledger.overhead_pct"] = 100.0 * (traced / plain - 1.0);
    const auto totals = ledger.totals();
    ledger_self_check(result, totals, "phase.replay");
    const double per_job = static_cast<double>(jobs);
    add_span_seconds(result, totals, per_job,
                     {{"serve.core_submit_s", "serve.core_submit"},
                      {"serve.core_run_s", "serve.core_run"},
                      {"serve.core_status_s", "serve.core_status"},
                      {"wire.encode_s", "wire.encode"},
                      {"wire.decode_s", "wire.decode"}});
    result.layers["wire.frames"] = static_cast<double>(frames) / per_job;
    result.layers["client.polls_per_job"] =
        served > 0 ? static_cast<double>(poll_calls) / served : 0.0;
    result.layers["client.poll_hit_ratio"] =
        served > 0 ? static_cast<double>(first_hits) / served : 0.0;
    result.layers["client.submit_rtt_ms"] = median(rtt);
    result.layers["loadgen.late_ms_p99"] = percentile(late, 99);
    result.layers["serve.bounced"] = static_cast<double>(bounced);
    write_span_file(options, ledger);
  } else {
    result.e2e("setup_s", median(setup_times), "s");
    result.e2e("kexec_per_s", static_cast<double>(kexec) / wall, "1/s");
    result.e2e("req_p50_ms", percentile(best_ms, 50), "ms");
    result.e2e("req_p90_ms", percentile(best_ms, 90), "ms");
    result.e2e("peak_rss_mb", server->peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "perfbench: serve %zu jobs (%zu distinct) at %.0f/s over one "
                 "connection; whole-run p50 %.3f p90 %.3f p99 %.3f ms; "
                 "generator late p99 %.3f ms\n",
                 jobs, distinct, kRateJobsPerS, percentile(latency, 50),
                 percentile(latency, 90), percentile(latency, 99),
                 percentile(late, 99));
  }
  ::unlink(job_log.c_str());
  ::unlink(socket_path.c_str());
  return result;
}

}  // namespace perfbench
