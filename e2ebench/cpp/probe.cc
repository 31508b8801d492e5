#include "probe.h"

#include <dirent.h>
#include <fcntl.h>
#include <immintrin.h>
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/build_info.h"
#include "stats/simd.h"

namespace scoded::e2e {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double RusageCpu(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) {
    return 0.0;
  }
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

}  // namespace

double SelfCpuSeconds() { return RusageCpu(RUSAGE_SELF); }

double ChildrenCpuSeconds() { return RusageCpu(RUSAGE_CHILDREN); }

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line (12th and 13th after ")").
  size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return -1.0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12 || i == 13) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StatusMb(pid_t pid, const char* key) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.good()) {
    return false;
  }
  clear << "5";
  clear.close();
  return clear.good();
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
           steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  CpuTimes times;
  times.busy = user + nice + system + irq + softirq + steal;
  times.steal = steal;
  return times;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  uint64_t busy = after.busy - before.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(after.steal - before.steal) / static_cast<double>(busy);
}

HostFingerprint GetFingerprint() {
  HostFingerprint host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      host.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  host.simd = simd::PathName(simd::ActivePath());
  host.build_type = std::string(obs::GetBuildInfo().build_type);
  return host;
}

bool IsOptimisedBuild(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo" ||
         build_type == "MinSizeRel";
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    (void)Stop();
  }
}

Status Daemon::Start(const std::string& cli, const std::string& log_path) {
  int out[2];
  if (pipe(out) != 0) {
    return InternalError(std::string("pipe: ") + std::strerror(errno));
  }
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(out[0]);
    close(out[1]);
    return InternalError("cannot open " + log_path);
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    close(log_fd);
    return InternalError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    const char* argv[] = {cli.c_str(), "serve", "--port", "0", "--threads", "4", nullptr};
    execv(cli.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  pid_ = pid;
  out_fd_ = out[0];
  output_.clear();
  // Wait (bounded) for "scoded serve listening on 127.0.0.1:PORT\n".
  auto start = Clock::now();
  while (output_.find('\n') == std::string::npos) {
    if (SecondsSince(start) > 10.0) {
      return DeadlineExceededError("scoded serve did not report its port within 10 s");
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    char buffer[256];
    ssize_t got = read(out_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      return UnavailableError("scoded serve exited before listening: " + output_);
    }
    output_.append(buffer, static_cast<size_t>(got));
  }
  size_t colon = output_.find("127.0.0.1:");
  if (colon == std::string::npos) {
    return InternalError("unexpected serve banner: " + output_);
  }
  port_ = static_cast<uint16_t>(std::atoi(output_.c_str() + colon + 10));
  return port_ == 0 ? InternalError("serve reported port 0") : OkStatus();
}

Status Daemon::Stop() {
  if (pid_ <= 0) {
    return OkStatus();
  }
  kill(pid_, SIGTERM);
  char buffer[256];
  while (true) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 10000) <= 0) {
      kill(pid_, SIGKILL);
      break;
    }
    ssize_t got = read(out_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      break;
    }
    output_.append(buffer, static_cast<size_t>(got));
  }
  close(out_fd_);
  out_fd_ = -1;
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return InternalError("scoded serve did not exit 0 on SIGTERM (status " +
                         std::to_string(status) + ")");
  }
  if (output_.find("shut down cleanly") == std::string::npos) {
    return InternalError("scoded serve did not report a clean shutdown: " + output_);
  }
  return OkStatus();
}

IdlePollers::IdlePollers() {
  int ready[2];
  if (pipe(ready) != 0) {
    return;
  }
  unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(ready[0]);
    std::vector<std::thread> pollers;
    for (unsigned i = 0; i < cpus; ++i) {
      pollers.emplace_back([fd = ready[1]] {
        sched_param param{};
        char ok = sched_setscheduler(0, SCHED_IDLE, &param) == 0 ? 1 : 0;
        (void)!write(fd, &ok, 1);
        while (ok != 0) {
          _mm_pause();
        }
      });
    }
    for (std::thread& poller : pollers) {
      poller.join();
    }
    _exit(0);  // no poller got the idle policy; the parent sees active() == 0
  }
  close(ready[1]);
  if (pid < 0) {
    close(ready[0]);
    return;
  }
  pid_ = pid;
  for (unsigned i = 0; i < cpus; ++i) {
    char ok = 0;
    if (read(ready[0], &ok, 1) != 1) {
      break;
    }
    active_ += ok;
  }
  close(ready[0]);
}

IdlePollers::~IdlePollers() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

namespace {

// A fixed CSV-like text: numeric fields, short category words, commas.
const std::string& CalibrationText() {
  static const std::string text = [] {
    std::string out;
    uint64_t state = 0x5C0DEDu;
    auto next = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<uint32_t>(state >> 33);
    };
    while (out.size() < (1u << 19)) {
      out += std::to_string(next() % 100000) + "." + std::to_string(next() % 1000) + ",w" +
             std::to_string(next() % 500) + "\n";
    }
    return out;
  }();
  return text;
}

// The mix of work the library's operations do, written here so that no
// library change can move it: parse numbers and words, intern the words,
// count into a large table at scattered positions, sort.
uint64_t CalibrationWork() {
  const std::string& text = CalibrationText();
  std::unordered_map<std::string, int> dictionary;
  std::vector<double> numbers;
  std::vector<int64_t> cells(1 << 20, 0);
  const char* p = text.data();
  const char* end = p + text.size();
  uint64_t mix = 0;
  while (p < end) {
    char* after = nullptr;
    double number = std::strtod(p, &after);
    numbers.push_back(number);
    const char* word = after + 1;
    const char* word_end = static_cast<const char*>(std::memchr(word, '\n', end - word));
    auto [it, inserted] =
        dictionary.emplace(std::string(word, word_end), static_cast<int>(dictionary.size()));
    mix = mix * 31 + static_cast<uint64_t>(it->second);
    ++cells[(mix ^ static_cast<uint64_t>(number)) & (cells.size() - 1)];
    p = word_end + 1;
  }
  std::sort(numbers.begin(), numbers.end());
  return mix + static_cast<uint64_t>(numbers[numbers.size() / 2]) + cells[mix & 1023];
}

}  // namespace

double CalibrationSeconds() {
  CalibrationText();
  auto thread_cpu = [] {
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
  };
  std::atomic<uint64_t> sink{0};
  double start = thread_cpu();
  sink += CalibrationWork();
  double single = thread_cpu() - start;
  std::vector<double> concurrent(4, 0.0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < concurrent.size(); ++i) {
    threads.emplace_back([&, i] {
      double begin = thread_cpu();
      sink += CalibrationWork();
      concurrent[i] = thread_cpu() - begin;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  double mean = 0.0;
  for (double seconds : concurrent) {
    mean += seconds / static_cast<double>(concurrent.size());
  }
  return single + mean;
}

std::vector<std::string> FilesWithPrefix(const std::string& dir, const std::string& prefix) {
  std::vector<std::string> names;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) {
    return names;
  }
  while (dirent* entry = readdir(handle)) {
    if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
      names.emplace_back(entry->d_name);
    }
  }
  closedir(handle);
  return names;
}

bool ProcessGone(pid_t pid) { return kill(pid, 0) != 0 && errno == ESRCH; }

}  // namespace scoded::e2e
