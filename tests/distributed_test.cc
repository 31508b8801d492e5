// Coordinator/worker distributed checking: report parity with the
// single-process sharded checker at any worker count and transport, and
// the fault matrix — workers that die mid-summary, return torn frames,
// or stall past the deadline are retried against survivors to a
// byte-identical report; runs with no survivors fail Unavailable (never
// hang, never fold a partial result); well-formed worker error envelopes
// abort with the worker's own status.

#include "distributed/coordinator.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/sharded_check.h"
#include "distributed/substrate.h"
#include "table/csv.h"

namespace scoded {
namespace {

// Renders the decision-relevant surface of a report the way `scoded check`
// prints it, so "identical reports" means the string a user would see.
std::string FormatReport(const ApproximateSc& asc, const ViolationReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s: %s (p = %.17g, statistic = %.17g, method = %s, n = %lld)",
                asc.sc.ToString().c_str(), report.violated ? "VIOLATED" : "holds", report.p_value,
                report.test.statistic, std::string(TestMethodToString(report.test.method)).c_str(),
                static_cast<long long>(report.test.n));
  std::string out = line;
  for (const ComponentResult& part : report.components) {
    std::snprintf(line, sizeof(line), " | %s p=%.17g stat=%.17g dof=%lld n=%lld exact=%d",
                  part.component.ToString().c_str(), part.test.p_value, part.test.statistic,
                  static_cast<long long>(part.test.dof), static_cast<long long>(part.test.n),
                  part.test.used_exact ? 1 : 0);
    out += line;
  }
  return out;
}

// Wraps a real channel and injects one class of fault into the first
// `faults` summarize responses, after which it behaves perfectly — the
// shape of a worker that died or wedged partway through the run.
class FaultChannel : public dist::WorkerChannel {
 public:
  enum class Mode {
    kDie,       // response lost, connection reads as closed (kUnavailable)
    kTear,      // frame torn mid-payload (kDataLoss at the framing layer)
    kTruncate,  // frame delivered but the JSON payload is cut short
    kStall,     // no bytes until the deadline expires (kDeadlineExceeded)
    kBadOp,     // request corrupted; the worker answers an error envelope
  };

  FaultChannel(std::unique_ptr<dist::WorkerChannel> inner, Mode mode, int faults)
      : inner_(std::move(inner)), mode_(mode), faults_left_(faults) {}

  Status Send(std::string_view payload) override {
    if (mode_ == Mode::kBadOp && faults_left_ > 0 &&
        payload.find("summarize") != std::string_view::npos) {
      --faults_left_;
      return inner_->Send("{\"op\":\"frobnicate\"}");
    }
    return inner_->Send(payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    Result<std::string> payload = inner_->Receive(deadline_millis);
    if (faults_left_ <= 0 || !payload.ok() ||
        payload->find("summaries") == std::string::npos) {
      return payload;
    }
    --faults_left_;
    switch (mode_) {
      case Mode::kDie:
        return UnavailableError("injected: worker process died");
      case Mode::kTear:
        return DataLossError("injected: connection torn mid-frame");
      case Mode::kTruncate:
        return payload->substr(0, payload->size() / 2);
      case Mode::kStall:
        return DeadlineExceededError("injected: worker produced no bytes");
      case Mode::kBadOp:
        break;
    }
    return payload;
  }

  void Kill() override { inner_->Kill(); }
  int64_t pid() const override { return inner_->pid(); }

 private:
  std::unique_ptr<dist::WorkerChannel> inner_;
  Mode mode_;
  int faults_left_;
};

// In-process fleet where the listed worker indices are faulty.
class FaultSubstrate : public dist::Substrate {
 public:
  FaultSubstrate(FaultChannel::Mode mode, std::vector<size_t> faulty_workers, int faults = 1)
      : mode_(mode), faulty_(std::move(faulty_workers)), faults_(faults) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    for (size_t w : faulty_) {
      if (w == worker_index) {
        return std::unique_ptr<dist::WorkerChannel>(
            new FaultChannel(std::move(channel), mode_, faults_));
      }
    }
    return channel;
  }

 private:
  dist::InProcessSubstrate inner_;
  FaultChannel::Mode mode_;
  std::vector<size_t> faulty_;
  int faults_;
};

class DistributedCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/distributed_check_test.csv";
    Rng rng(97);
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf", "a4"};
    const char* colors[] = {"red", "blue", "white", "black"};
    for (int i = 0; i < 900; ++i) {
      int64_t m = rng.UniformInt(0, 4);
      int64_t c = rng.UniformInt(0, 9) < 4 ? m % 4 : rng.UniformInt(0, 3);
      if (rng.UniformInt(0, 49) == 0) {
        out << "";  // ~2% nulls keep the null-cell wire path honest
      } else {
        out << models[m];
      }
      out << ',' << colors[c] << ',';
      if (rng.UniformInt(0, 49) == 1) {
        out << "";
      } else {
        out << (1000 + m * 250 + rng.UniformInt(0, 400));
      }
      out << ',' << rng.UniformInt(0, 120000) << '\n';
    }
    out.close();

    constraints_.push_back({MustParse("Model _||_ Color"), 0.05});
    constraints_.push_back({MustParse("Model !_||_ Price"), 0.3});
    constraints_.push_back({MustParse("Price _||_ Mileage | Model"), 0.05});
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static StatisticalConstraint MustParse(const std::string& text) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    EXPECT_TRUE(sc.ok()) << sc.status().message();
    return std::move(sc).value();
  }

  ShardedCheckOptions BaseOptions() const {
    ShardedCheckOptions options;
    options.reader.shard_rows = 64;
    return options;
  }

  std::vector<std::string> Lines(const ShardedCheckResult& result) const {
    std::vector<std::string> lines;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      lines.push_back(FormatReport(constraints_[i], result.reports[i]));
    }
    return lines;
  }

  std::vector<std::string> SingleProcessLines() {
    Result<ShardedCheckResult> result = ShardedCheckAll(path_, constraints_, BaseOptions());
    EXPECT_TRUE(result.ok()) << result.status().message();
    return Lines(*result);
  }

  std::string path_;
  std::vector<ApproximateSc> constraints_;
};

TEST_F(DistributedCheckTest, MatchesSingleProcessAtAnyWorkerCount) {
  std::vector<std::string> expected = SingleProcessLines();
  for (int workers : {1, 2, 4}) {
    dist::InProcessSubstrate substrate;
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = workers;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": " << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(result->shards, size_t{(900 + 63) / 64});
    EXPECT_EQ(Lines(*result), expected) << "workers=" << workers;
  }
}

TEST_F(DistributedCheckTest, MoreWorkersThanTasksStillFolds) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.base.reader.shard_rows = 900;  // one shard, one task
  options.workers = 4;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Different shard size, same data: decisions and p-values agree with the
  // 64-row sharding because summaries are exact.
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, RetriesWorkerDeathToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  for (FaultChannel::Mode mode : {FaultChannel::Mode::kDie, FaultChannel::Mode::kTear,
                                  FaultChannel::Mode::kTruncate}) {
    FaultSubstrate substrate(mode, {0});
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = 2;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(Lines(*result), expected) << "mode=" << static_cast<int>(mode);
  }
}

TEST_F(DistributedCheckTest, RetriesStalledWorkerToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  FaultSubstrate substrate(FaultChannel::Mode::kStall, {0});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  options.deadline_millis = 30000;  // the stall is injected, not timed
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, AllWorkersLostFailsUnavailableWithoutHanging) {
  // Every worker dies on its first summarize and the fleet never recovers:
  // the coordinator must give up with kUnavailable, not hang or return a
  // partial fold.
  FaultSubstrate substrate(FaultChannel::Mode::kDie, {0, 1, 2}, /*faults=*/1000);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 3;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable) << result.status().ToString();
}

TEST_F(DistributedCheckTest, WorkerErrorEnvelopeAbortsWithItsStatus) {
  // A well-formed error envelope is the worker correctly reporting a
  // problem no retry can cure; the run aborts with the decoded status
  // instead of burning through the fleet.
  FaultSubstrate substrate(FaultChannel::Mode::kBadOp, {0, 1});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << result.status().ToString();
  EXPECT_NE(result.status().message().find("worker:"), std::string::npos)
      << result.status().ToString();
}

TEST_F(DistributedCheckTest, ZeroWorkersIsAUsageError) {
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.workers = 0;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DistributedCheckTest, MissingFileFailsBeforeSpawningWorkers) {
  // Substrate that refuses to spawn: proves the coordinator validates the
  // input before raising a fleet.
  class NoSpawn : public dist::Substrate {
   public:
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t) override {
      ADD_FAILURE() << "coordinator spawned a worker for a missing file";
      return InternalError("unreachable");
    }
  };
  NoSpawn substrate;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_ + ".nope", constraints_, substrate, {});
  EXPECT_FALSE(result.ok());
}

TEST_F(DistributedCheckTest, FileGrowingDuringTheRunIsDataLoss) {
  // Rows appended once the driver's first pass is done: the workers read
  // the longer file, so the folded row total disagrees with the driver's.
  class AppendOnFirstSpawn : public dist::Substrate {
   public:
    explicit AppendOnFirstSpawn(std::string path) : path_(std::move(path)) {}
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
      if (!appended_) {
        appended_ = true;
        std::ofstream out(path_, std::ios::app);
        for (int i = 0; i < 100; ++i) {
          out << "golf,red,1600,5000\n";
        }
      }
      return inner_.Spawn(worker_index);
    }

   private:
    std::string path_;
    bool appended_ = false;
    dist::InProcessSubstrate inner_;
  };
  AppendOnFirstSpawn substrate(path_);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << result.status().ToString();
}

TEST(DistributedWorkerTest, NonIntegralOrHugeRequestNumbersAreInvalidArgument) {
  // JSON numbers are doubles; a worker must reject 1.5 as a column and
  // 1e300 as a shard index instead of casting them.
  const std::string head =
      R"({"op":"summarize","path":"/nonexistent.csv","reader":{"shard_rows":64,)"
      R"("buffer_bytes":4096,"delimiter":",","has_header":true,"infer_types":true},)";
  const std::vector<std::string> requests = {
      head + R"("specs":[{"x":1.5,"y":0,"z":[]}],"begin":0,"end":1})",
      head + R"("specs":[{"x":0,"y":1,"z":[2.5]}],"begin":0,"end":1})",
      head + R"("specs":[{"x":0,"y":1,"z":[]}],"begin":1e300,"end":1e300})",
      head + R"("specs":[{"x":0,"y":1,"z":[]}],"begin":0,"end":-1})",
  };
  dist::InProcessSubstrate substrate;
  Result<std::unique_ptr<dist::WorkerChannel>> channel = substrate.Spawn(0);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  for (const std::string& request : requests) {
    ASSERT_TRUE((*channel)->Send(request).ok());
    Result<std::string> reply = (*channel)->Receive(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    Result<JsonValue> parsed = ParseJson(*reply);
    ASSERT_TRUE(parsed.ok()) << *reply;
    const JsonValue* ok = parsed->Find("ok");
    const JsonValue* code = parsed->Find("code");
    ASSERT_TRUE(ok != nullptr && ok->is_bool() && code != nullptr && code->is_string()) << *reply;
    EXPECT_FALSE(ok->bool_value) << request;
    EXPECT_EQ(code->string_value, "InvalidArgument") << request << " -> " << *reply;
  }
}

// ---------------------------------------------------------------------------
// Real child processes: the fork/exec substrate against the installed-style
// binary, including a SIGKILL mid-run.
// ---------------------------------------------------------------------------

TEST(ProcessChannelTest, ChildIgnoringEofIsKilledAfterTheGracePeriod) {
  // The child never reads its socket, so closing the channel does not end
  // it: teardown must wait out the grace period, SIGKILL it, and reap it.
  dist::ForkExecSubstrate substrate("/bin/sh", {"-c", "exec sleep 30"});
  Result<std::unique_ptr<dist::WorkerChannel>> channel = substrate.Spawn(0);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  pid_t pid = static_cast<pid_t>((*channel)->pid());
  ASSERT_GT(pid, 0);
  auto start = std::chrono::steady_clock::now();
  channel->reset();
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(waited, 4.5) << "killed before the grace period ran out";
  EXPECT_LT(waited, 20.0) << "teardown waited for the child's own exit";
  // Reaped, so no zombie is left: the pid is no longer a child of ours.
  errno = 0;
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}


#ifdef SCODED_CLI_BIN

// Fork/exec substrate that SIGKILLs the chosen worker the moment it is
// spawned — by the time its first summarize lands, the process is gone and
// the coordinator sees the connection die mid-conversation.
class KillOnSpawnSubstrate : public dist::Substrate {
 public:
  explicit KillOnSpawnSubstrate(size_t victim)
      : inner_(SCODED_CLI_BIN, {"worker"}), victim_(victim) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    if (worker_index == victim_ && channel->pid() > 0) {
      ::kill(static_cast<pid_t>(channel->pid()), SIGKILL);
    }
    return channel;
  }

 private:
  dist::ForkExecSubstrate inner_;
  size_t victim_;
};

TEST_F(DistributedCheckTest, ForkWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, ForkWorkersAreDismissedWithoutWaitingOutTheGrace) {
  // Each worker is dismissed as soon as its lane is done, so teardown never
  // waits out the 5 s grace.
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 3;
  auto start = std::chrono::steady_clock::now();
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_LT(waited, 4.0);
}

TEST_F(DistributedCheckTest, TcpWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::TcpSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, SigkilledForkWorkerIsRetriedOnSurvivor) {
  std::vector<std::string> expected = SingleProcessLines();
  KillOnSpawnSubstrate substrate(/*victim=*/0);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->rows, uint64_t{900});
  EXPECT_EQ(Lines(*result), expected);
}

// Parsed /proc/<pid>/stat: the state letter and the parent pid, or
// state '\0' when the process is gone.
struct ProcStat {
  char state = '\0';
  pid_t ppid = 0;
};

ProcStat ReadProcStat(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ProcStat stat;
  size_t paren = text.rfind(')');  // the command name may hold spaces
  if (paren != std::string::npos) {
    std::istringstream fields(text.substr(paren + 1));
    fields >> stat.state >> stat.ppid;
  }
  return stat;
}

// Live children of `parent`, from each process's parent pid (kernels built
// without CONFIG_PROC_CHILDREN have no /proc/<pid>/task/*/children).
std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> children;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) {
    return children;
  }
  while (const dirent* entry = ::readdir(proc)) {
    pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid > 0 && ReadProcStat(pid).ppid == parent) {
      children.push_back(pid);
    }
  }
  ::closedir(proc);
  return children;
}

// Running, as opposed to exited (gone) or exited but not yet reaped.
bool StillRunning(pid_t pid) {
  char state = ReadProcStat(pid).state;
  return state != '\0' && state != 'Z' && state != 'X';
}

std::vector<std::string> ReportFiles(const std::string& dir) {
  std::vector<std::string> reports;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name.rfind("scoded-", 0) == 0 && name.compare(name.size() - 7, 7, ".report") == 0) {
        reports.push_back(name);
      }
    }
    ::closedir(d);
  }
  return reports;
}

TEST(DistributedSignalTest, SigtermToCoordinatorLeavesNoWorkersAndNoReports) {
  // A coordinator killed mid-run must take its fleet with it: every worker
  // reads EOF on its channel and exits, and neither the coordinator nor a
  // worker leaves a pre-opened flight-recorder report behind.
  std::string dir = ::testing::TempDir() + "/scoded_sigterm_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string csv = dir + "/fleet.csv";
  {
    // Large enough that the run is still going once all four workers are up.
    Rng rng(7);
    std::ofstream out(csv);
    out << "zip,city,state\n";
    for (int i = 0; i < 400000; ++i) {
      int64_t zip = rng.UniformInt(10000, 10099);
      out << zip << ",city" << zip % 37 << ",st" << zip % 11 << '\n';
    }
    ASSERT_TRUE(out.good());
  }
  // Everything the child needs is built before the fork: it only makes
  // async-signal-safe calls before exec.
  std::vector<std::string> args = {SCODED_CLI_BIN, "check", "--csv", csv, "--sc", "zip !_||_ city",
                                   "--shard-rows", "5000", "--workers", "4"};
  std::vector<std::string> env = {"SCODED_CRASH_DIR=" + dir};
  for (char** var = environ; *var != nullptr; ++var) {
    if (std::string(*var).rfind("SCODED_CRASH_DIR=", 0) != 0) {
      env.push_back(*var);
    }
  }
  std::vector<char*> argv;
  std::vector<char*> envp;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  for (std::string& var : env) {
    envp.push_back(var.data());
  }
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  pid_t coordinator = ::fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  std::vector<pid_t> workers;
  int status = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (workers.size() < 4 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(::waitpid(coordinator, &status, WNOHANG), 0)
        << "the check finished before its workers were all up";
    workers = ChildrenOf(coordinator);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (workers.size() != 4) {
    ::kill(coordinator, SIGKILL);
    ::waitpid(coordinator, &status, 0);
    FAIL() << "saw " << workers.size() << " workers in 30 s";
  }
  ASSERT_EQ(::kill(coordinator, SIGTERM), 0);
  ASSERT_EQ(::waitpid(coordinator, &status, 0), coordinator);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) << "wait status " << status;

  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto any_running = [&] {
    for (pid_t worker : workers) {
      if (StillRunning(worker)) {
        return true;
      }
    }
    return false;
  };
  while (any_running() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (pid_t worker : workers) {
    EXPECT_FALSE(StillRunning(worker)) << "worker " << worker << " outlived its coordinator";
    if (StillRunning(worker)) {
      ::kill(worker, SIGKILL);
    }
  }
  std::vector<std::string> reports = ReportFiles(dir);
  EXPECT_TRUE(reports.empty()) << reports.size() << " report file(s) left, first "
                               << (reports.empty() ? "" : reports[0]);
  for (const std::string& name : reports) {
    std::remove((dir + "/" + name).c_str());
  }
  std::remove(csv.c_str());
  ::rmdir(dir.c_str());
}

#endif  // SCODED_CLI_BIN

}  // namespace
}  // namespace scoded
